"""The output-file writer that the ``discoccg`` CLI hands its files to once
writing them in process has cost more than starting this process.

Usage: python -I -S _writer.py DATA_FD STATUS_FD

Writes ``+`` to STATUS_FD once it runs, then reads frames from DATA_FD
until end of file, each a file to create: a 4-byte path length, the path,
an 8-byte payload length and the payload, lengths little-endian.  The files
are created in the order received, as ``open(path, "wb")`` creates them.
At the first ``OSError`` it writes ``errno NUL strerror NUL path`` to
STATUS_FD and exits with status 1, so no later file is written.  It imports
only ``os`` and ``sys``: it must start fast, and ``import discoccg.cli``
must not compile it.
"""

import os
import sys

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC


def main(data_fd: int, status_fd: int) -> int:
    os.write(status_fd, b"+")
    with open(data_fd, "rb") as data:
        while True:
            path = data.read(int.from_bytes(data.read(4), "little"))
            size = int.from_bytes(data.read(8), "little")
            payload = data.read(size)
            if not path or len(payload) != size:
                return 0   # the end of the batch, or a sender that died mid-frame
            try:
                fd = os.open(path, FLAGS, 0o666)
                try:
                    view = memoryview(payload)
                    while view:
                        view = view[os.write(fd, view):]
                finally:
                    os.close(fd)
            except OSError as exc:
                strerror = exc.strerror.encode("utf-8", "surrogateescape")
                os.write(status_fd, b"%d\0%s\0%s" % (exc.errno, strerror, path))
                return 1


if __name__ == "__main__":
    os._exit(main(int(sys.argv[1]), int(sys.argv[2])))
