"""REP006 positive fixture: two locks acquired in opposite orders.

``forward`` holds ``_a`` while a two-function call chain acquires
``_b``; ``backward`` holds ``_b`` while acquiring ``_a`` — a lock-order
cycle no per-file check can see.
"""

import threading


class Store:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.items = []

    def forward(self):
        with self._a:
            return self._grab_b()

    def _grab_b(self):
        with self._b:
            return len(self.items)

    def backward(self):
        with self._b:
            return self._grab_a()

    def _grab_a(self):
        with self._a:
            return len(self.items)
