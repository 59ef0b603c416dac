"""Small union-find: the tests' oracle for spanning and connectivity checks."""

from __future__ import annotations


class UnionFind:
    def __init__(self, items=()):
        self.parent: dict = {}
        self.size: dict = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1

    def find(self, item):
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def connected(self, a, b) -> bool:
        return self.find(a) == self.find(b)

    def component_count(self) -> int:
        return sum(1 for item, p in self.parent.items() if item == p)
