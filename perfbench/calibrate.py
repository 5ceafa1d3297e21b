"""Times a fixed pure-Python workload and prints the seconds it took.

    python3 perfbench/calibrate.py [CPU]

The work is interpreter-bound like the simulators' inner loops (dict
traffic and an event heap) and never changes with the repo, so its time
tracks only the speed the host gives a process right now.  It runs for
about 0.1 s, pinned to ``CPU`` when one is given.
"""

import heapq
import os
import sys
import time


def work(n: int = 300000) -> int:
    table = {}
    queue = []
    acc = 0
    for i in range(n):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        heapq.heappush(queue, (key, i))
        if len(queue) > 64:
            acc += heapq.heappop(queue)[1]
    return acc + len(table)


def main() -> None:
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
