"""Fixture: Kernel.prepare results mutated outside product/prepare.

Deliberately violates ``prepare-purity``; expected findings are
asserted in tests/test_repro_lint.py.
"""


class CachedBackend:
    def setup(self, kernel, matrices):
        self.states = [kernel.prepare(m) for m in matrices]

    def poke(self, pe):
        self.states[pe].data[0] = 0.0  # prepare-purity (line 13)

    def scrub(self):
        self.states[0].sort_indices()  # prepare-purity (line 16)

    def rebuild(self, kernel, matrices):
        self.states = [kernel.prepare(m) for m in matrices]  # clean

    def product(self, pe, x):
        self.states[pe].data[0] = 1.0  # clean: product is exempt
        return x


def local_mutation(kernel, matrix):
    state = kernel.prepare(matrix)
    state.fill(0.0)  # prepare-purity (line 28)
    return state


def local_rebinding(kernel, matrix):
    state = kernel.prepare(matrix)
    state = None  # clean: rebinding, not mutation
    return state
