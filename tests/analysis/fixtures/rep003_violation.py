"""REP003 fixture: discarded thread, plus the unlocked write REP011 owns."""

import threading


class Service:
    def __init__(self):
        self._lock = threading.RLock()
        self._events = 0

    def ingest(self, n):
        self._events += n                # REP011 error: no lock held

    def spawn(self):
        threading.Thread(target=self.ingest, args=(1,)).start()  # warning
