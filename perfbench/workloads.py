"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, sets up its field
contexts and generator sets (setup()), and gives the fixed list of requests
that every cycle of a run sends (requests()).  A request's work() makes the
public calls the CLI command it stands for makes, in the same order, and
nothing else; its check() verifies the output afterwards, outside the timed
part.  The calls go through the module attributes (symplectic.weil_image,
not a copy of it), so the traced run can wrap them (spans.py) and a change
to any of them moves the figures.

All workloads are closed loops with one client in one process and start no
threads.  Why each one exists is written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spweil import generators, heisenberg, serialize, submodules, symplectic, verification
from spweil.fields import make_field, parse_field_spec
from spweil.operators import DenseOp, WeilParams, identity_op
from spweil.symplectic import GenToken, group_order, random_element
from spweil.verification import CapExceeded

DEFAULT_SEED = 0
DIGEST_FILE = Path(__file__).with_name("digests.json")


@dataclass
class Request:
    name: str
    work: Callable    # work() -> result; the timed part
    check: Callable   # check(result) -> None, or what is wrong


def load_digests():
    if not DIGEST_FILE.exists():
        return {}
    return json.loads(DIGEST_FILE.read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def make_params(spec, r, ell):
    """Field context and parameters, parsed from the CLI field grammar."""
    return WeilParams(r, ell, make_field(parse_field_spec(spec, r)))


class Workload:
    name = None
    command = None       # the CLI command the requests stand for

    def __init__(self, seed, mutate=None):
        self.seed = seed
        self.mutate = mutate   # gens -> gens, for the negative controls
        self.digests = load_digests().get(self.name, {})

    def generators(self, spec, r, ell):
        gens = generators.weil_generators(make_params(spec, r, ell))
        return self.mutate(gens) if self.mutate else gens

    def setup(self):
        raise NotImplementedError

    def requests(self, state):
        raise NotImplementedError

    def digest_check(self, key, text):
        """Compare against the digest recorded at the default seed."""
        want = self.digests.get(key)
        if want is None:
            return f"no recorded digest for {key}"
        if sha256(text) != want:
            return f"document digest differs from the recorded one for {key}"
        return None


def json_document(gens, matrices, word=None, g=None):
    """`spweil gens|image --format json`: build_document, then dumps_document."""
    doc = serialize.build_document(gens, matrices, word=word)
    if g is not None:
        doc["input"] = g.serialize()
    return serialize.dumps_document(doc)


def problems(*found):
    return "; ".join(p for p in found if p) or None


# ---------------------------------------------------------------------------
# image_stream: `spweil image` on seeded random_element inputs

# One cycle is 100 requests, each on its own element.  The counts keep each
# percentile away from the edge between two kinds of request: sorted by
# time, the GF(11) (5,2) and GF(7) (3,3) requests come first (10-45 ms; the
# median lies among them), then the constituents (about 50 ms), GF(29) (7,2)
# (80-150 ms; the 90th percentile lies in the middle of them), and last the
# four generic-field full images (0.5-0.9 s, mostly pi_map).
PRIME_SETS = {("auto-prime", 5, 2): 40, ("auto-prime", 3, 3): 42, ("auto-prime", 7, 2): 12}
GENERIC_SETS = [("cyclotomic", 5, 2), ("cyclotomic", 3, 3),
                ("gf2-auto", 5, 2), ("gf2-auto", 3, 3)]
CONSTITUENTS = {"cyclotomic": ("plus", "minus"), "gf2-auto": ("socle", "quotient")}


class ImageStream(Workload):
    name = "image_stream"
    command = "cli.image"

    def setup(self):
        return {s: self.generators(*s) for s in [*PRIME_SETS, *GENERIC_SETS]}

    def plan(self):
        """(index, parameter set, constituent or None, g) per request.

        Each generic set gets one full image; one cyclotomic and one char-2
        set also get a constituent, so one generic request in three asks
        for one.  Every g lies in the big Bruhat cell, where a random
        element usually lies: the rank of its lower-left block sets how
        dense the image is, and an image of rank l - 1 costs about a quarter
        as much, so a seed-dependent mix of ranks would move the figures."""
        rng = random.Random(self.seed)
        slots = [(s, None) for s, count in PRIME_SETS.items() for _ in range(count)]
        slots += [(s, None) for s in GENERIC_SETS]
        for family, whiches in CONSTITUENTS.items():
            pset = rng.choice([s for s in GENERIC_SETS if s[0] == family])
            slots.append((pset, rng.choice(whiches)))
        rng.shuffle(slots)
        return [(i, pset, which, big_cell_element(pset[2], pset[1], f"{self.seed}:{i}"))
                for i, (pset, which) in enumerate(slots)]

    def requests(self, state):
        return [self._request(state[pset], index, which, g)
                for index, pset, which, g in self.plan()]

    def _request(self, gens, index, which, g):
        digest_key = str(index) if self.seed == DEFAULT_SEED else None
        reference = []   # the constituent computed another way, made once

        def work():
            return image_request(gens, g, which)

        def check(result):
            text, mat = result
            found = []
            if which is None and mat != g:
                found.append("pi_map(image) != g")
            if which is not None:
                if not reference:
                    reference.append(constituent_reference(gens, g, which))
                if mat != reference[0]:
                    found.append(f"{which} constituent differs from the restricted full image")
            if digest_key:
                found.append(self.digest_check(digest_key, text))
            return problems(*found)

        return Request(f"image[{index}]", work, check)


def image_request(gens, g, which=None):
    """`spweil image` as cli.cmd_image does it (after weil_generators), plus
    the pi_map roundtrip of a full image.  Returns the JSON document and
    pi_map(image) for a full image, the constituent's matrix otherwise."""
    word = symplectic.decompose(g)
    if which is None:
        mat = symplectic.weil_image(g, gens)
        name = "g_weil"
    else:
        mat = submodules.weil_image_irreducible(g, gens, which)
        name = f"g_weil_{which}"
    text = json_document(gens, {name: mat}, word=word, g=g)
    if which is None:
        return text, heisenberg.pi_map(mat, gens.params)
    return text, mat


def constituent_reference(gens, g, which):
    """The constituent's matrix from the materialised full image: restrict's
    generic exact solve, not its pair-symmetry shortcut, for plus, minus
    and socle; restrict_quotient of the dense image for the quotient."""
    params = gens.params
    full = DenseOp(params, symplectic.weil_image(g, gens))
    if which == "quotient":
        return submodules.restrict_quotient(full, params)
    label = {"plus": "W+", "minus": "W-", "socle": "A"}[which]
    basis = next(b for b in submodules.submodule_bases(params) if b.label == label)
    return submodules.restrict(full, basis, params.ctx)


def lower_left_rank(g):
    """Rank over GF(r) of the block of g from the e-coordinates to the
    f-coordinates (rows 2i+1, columns 2j of the interleaved basis)."""
    r, ell = g.r, g.ell
    rows = [[g.rows[2 * i + 1][2 * j] for j in range(ell)] for i in range(ell)]
    rank = 0
    for col in range(ell):
        pivot = next((i for i in range(rank, ell) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], r - 2, r)
        for i in range(ell):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % r
                rows[i] = [(a - f * b) % r for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def big_cell_element(ell, r, seed):
    """The first random_element drawn from seed:0, seed:1, ... whose
    lower-left block is invertible."""
    for attempt in itertools.count():
        g = random_element(ell, r, f"{seed}:{attempt}")
        if lower_left_rank(g) == ell:
            return g


# ---------------------------------------------------------------------------
# gens_emit: `spweil gens` in three formats, plus the acceptance-8 workload

# (format, field, r, l, --full)
GENS_DOCUMENTS = [("json", "auto-prime", 5, 3, True),
                  ("magma", "cyclotomic", 3, 4, False),
                  ("gap", "gf2-auto", 3, 4, False)]
ACC8_SET = ("auto-prime", 5, 4)
ACC8_WORD_SEED = 20260810


def document_key(fmt, spec, r, ell, full):
    return f"{fmt}:{spec}:{r}:{ell}" + (":full" if full else "")


def gens_document(gens, fmt, full):
    """`spweil gens --format fmt [--full]` as cli.cmd_gens does it (after
    weil_generators)."""
    matrices = serialize.generator_matrices(gens, full=full)
    if fmt == "json":
        return json_document(gens, matrices)
    out = io.StringIO()
    (serialize.emit_magma if fmt == "magma" else serialize.emit_gap)(gens, matrices, out)
    return out.getvalue()


def acc8_word(seed):
    """A 100-token word in (lam*C_t, D_st, U_t) at l = 4, drawn as acceptance
    criterion 8 draws it; seed 0 gives that criterion's word."""
    rng = random.Random(ACC8_WORD_SEED + seed)
    word = []
    for _ in range(100):
        kind = rng.choice(["C", "D", "U"])
        if kind == "D":
            s = rng.randrange(1, 4)
            word.append(GenToken("D", rng.randrange(s + 1, 5), s, rng.randrange(1, 5)))
        else:
            t = rng.randrange(1, 5)
            exp = rng.randrange(1, 4) if kind == "C" else rng.randrange(1, 5)
            word.append(GenToken(kind, t, None, exp))
    return word


def apply_word(gens, word, vec):
    """The operator of word and its value on vec."""
    op = symplectic.evaluate_word(word, symplectic.weil_assignment(gens),
                                  identity_op(gens.params))
    return op, op.apply(vec)


def acc8_vector(gens):
    ctx = gens.ctx
    return [ctx.from_int(i) for i in range(gens.params.n)]


def matrices_digest(matrices):
    """SHA-256 over the entries of GF(p) matrices with p < 256, in order."""
    h = hashlib.sha256()
    for name, mat in matrices.items():
        h.update(name.encode())
        for row in mat.rows:
            h.update(bytes(row))
    return h.hexdigest()


def vector_digest(vec):
    return sha256(json.dumps(vec))


class GensEmit(Workload):
    name = "gens_emit"
    command = "cli.gens"

    def setup(self):
        state = {s[1:4]: self.generators(*s[1:4]) for s in GENS_DOCUMENTS}
        state[ACC8_SET] = self.generators(*ACC8_SET)
        return state

    def requests(self, state):
        gens = state[ACC8_SET]
        requests = [self._document(state[d[1:4]], *d) for d in GENS_DOCUMENTS]
        requests.append(Request("acc8:matrices",
                                lambda: serialize.generator_matrices(gens, full=True),
                                self._check_matrices))
        requests.append(self._acc8_word(gens))
        return requests

    def _document(self, gens, fmt, spec, r, ell, full):
        key = document_key(fmt, spec, r, ell, full)
        return Request(key, lambda: gens_document(gens, fmt, full),
                       lambda text: self.digest_check(key, text))

    def _check_matrices(self, matrices):
        if matrices_digest(matrices) != self.digests.get("acc8:matrices"):
            return "matrix digest differs from the recorded one"
        return None

    def _acc8_word(self, gens):
        word = acc8_word(self.seed)
        vec = acc8_vector(gens)

        def check(result):
            op, out = result
            found = []
            if op.inverse().apply(out) != vec:
                found.append("the inverse word does not undo the word")
            if self.seed == DEFAULT_SEED and vector_digest(out) != self.digests.get("acc8:vector"):
                found.append("vector digest differs from the recorded one")
            return problems(*found)

        return Request("acc8:word", lambda: apply_word(gens, word, vec), check)


# ---------------------------------------------------------------------------
# verify_grid: `spweil verify` over the acceptance-1 grid; at r = 3, l = 1
# the suite includes check_sl23_presentation

RELATION_GRID = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                 (7, 1), (7, 2), (11, 1), (13, 1)]
CHAR2_GRID = [(3, 1), (3, 2), (5, 1)]
# The cyclotomic (7,2) cell is left out: it is 44% of the grid's time, and
# without it a run repeats the rest four times.  Its work is of the same
# kind as the cyclotomic (5,2), (3,3), (11,1) and (13,1) cells, which stay.
LEFT_OUT = [("cyclotomic", 7, 2)]
# One request verifies one (r, l) of the grid in every field family the grid
# has there.  Single cells would make the percentiles jump between unlike
# cells of near-equal cost; the (r, l) requests are far enough apart.
GRID_REQUESTS = {(r, ell): [spec for spec in ["cyclotomic", "auto-prime"]
                            + (["gf2-auto"] if (r, ell) in CHAR2_GRID else [])
                            if (spec, r, ell) not in LEFT_OUT]
                 for r, ell in RELATION_GRID}
# The suite samples random products with this seed.  It stays at the CLI
# default: other suite seeds change the work by up to 75% on cyclotomic
# (7,2), which would swamp the effect of any code change.
SUITE_SEED = 0


class VerifyGrid(Workload):
    name = "verify_grid"
    command = "cli.verify"

    def setup(self):
        return {(spec, r, ell): self.generators(spec, r, ell)
                for (r, ell), specs in GRID_REQUESTS.items() for spec in specs}

    def requests(self, state):
        grid = list(GRID_REQUESTS.items())
        random.Random(self.seed).shuffle(grid)
        return [self._suites([state[(spec, r, ell)] for spec in specs])
                for (r, ell), specs in grid]

    @staticmethod
    def _suites(gens_list):
        def work():
            return [verification.run_relation_suite(gens.params, seed=SUITE_SEED, gens=gens)
                    for gens in gens_list]

        def check(reports):
            failed = [e.id for report in reports for e in report.failures()]
            return "failed checks: " + ", ".join(failed) if failed else None

        params = gens_list[0].params
        return Request(f"suite:{params.r}:{params.ell}", work, check)


# ---------------------------------------------------------------------------
# closure: `spweil verify --closure`, counting the generated matrix group

# Sp(2,11) puts a request between the small closures and the generic ones,
# so the median request is one kind of request, not a mix of two.
CLOSURE_SETS = [("auto-prime", 3, 1), ("auto-prime", 5, 1), ("auto-prime", 7, 1),
                ("auto-prime", 11, 1), ("cyclotomic", 7, 1), ("gf2-auto", 7, 1)]
# The full Sp(4,3) closure (51,840 elements) takes about 30 s, more than a
# run may spend, so the breadth-first search stops at this many elements.
SP43_SET = ("auto-prime", 3, 2)
SP43_CAP = 12_000
CLI_CAP = 10 ** 6


class Closure(Workload):
    name = "closure"
    command = "cli.verify"

    def __init__(self, seed, mutate=None, order=group_order):
        super().__init__(seed, mutate)
        self.order = order   # expected group order; wrong on purpose in a control

    def setup(self):
        rng = random.Random(self.seed)
        state = {}
        for pset in CLOSURE_SETS + [SP43_SET]:
            gens = self.generators(*pset)
            mats = [op.materialize() for _, _, _, op in gens.sp_generating_ops()]
            if pset != SP43_SET:
                # the order of the generators changes the search order, not
                # the work of a full closure; a capped search keeps it fixed
                rng.shuffle(mats)
            state[pset] = mats
        return state

    def requests(self, state):
        requests = [self._full(state[pset], pset) for pset in CLOSURE_SETS]
        requests.append(self._capped(state[SP43_SET]))
        return requests

    def _full(self, mats, pset):
        _, r, ell = pset

        def check(count):
            want = self.order(ell, r)
            return None if count == want else f"closure gave {count}, expected {want}"

        return Request("closure:{}:{}:{}".format(*pset),
                       lambda: verification.closure_order(mats, CLI_CAP), check)

    def _capped(self, mats):
        def work():
            try:
                return verification.closure_order(mats, SP43_CAP)
            except CapExceeded:
                return None

        def check(count):
            if count is not None:
                return f"closure stopped at {count} below the cap {SP43_CAP}"
            if self.order(2, 3) <= SP43_CAP:
                return f"cap {SP43_CAP} exceeded by a group of order {self.order(2, 3)}"
            return None

        return Request("closure:{}:{}:{}:capped".format(*SP43_SET), work, check)


WORKLOADS = {w.name: w for w in (ImageStream, GensEmit, VerifyGrid, Closure)}
