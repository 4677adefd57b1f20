"""Edit the arrays of a `knn-model/2` document, for the bad-model tests.

Each array is stored as {"dtype", "shape", "data"}, `data` being base64
of the array's bytes. `reencode` decodes one, passes it through an edit
and stores the result again, declaring the dtype and shape it now has.
"""

import base64

import numpy as np


def decode(doc: dict, name: str) -> np.ndarray:
    arr = doc[name]
    return np.frombuffer(base64.b64decode(arr["data"]), arr["dtype"]).reshape(arr["shape"])


def reencode(doc: dict, name: str, edit, dtype=None) -> None:
    """Replace array `name` of `doc` by `edit` of a writable copy of it,
    cast to `dtype` when given."""
    arr = np.asarray(edit(decode(doc, name).copy()), dtype=dtype)
    doc[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape),
                 "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def put(index, value):
    """An edit that sets `arr[index] = value`."""
    def edit(arr):
        arr[index] = value
        return arr
    return edit
