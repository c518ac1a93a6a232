"""One task of each kind, run through the library's public API.

A task returns None when every answer matches the one fixed at generation
time, or a short reason when one does not.  Exceptions propagate; the
caller counts them as failures too.
"""

from __future__ import annotations


class Pipeline:
    """Binds the task runners to one imported copy of the library."""

    def __init__(self, lib):
        self.lib = lib
        self._fields = {}

    def field(self, name):
        if name not in self._fields:
            self._fields[name] = self.lib.field_from_name(name)
        return self._fields[name]

    def run(self, task):
        if hasattr(task, "k"):
            return self.dynamics(task)
        return self.conjugacy(task)

    def dynamics(self, task):
        lib = self.lib
        K = self.field(task.field)
        aut = lib.plane_aut_from_endo(lib.parse_automorphism(task.f, K))
        degs = lib.degree_sequence(aut, task.k)
        if degs != [task.d ** i for i in range(1, task.k + 1)]:
            return f"degree sequence {degs}"
        if not lib.is_dynamically_regular(aut):
            return "not regular"
        return None

    def conjugacy(self, task):
        lib = self.lib
        K = self.field(task.field)
        f = lib.plane_aut_from_endo(lib.parse_automorphism(task.f, K))
        if f.degree != task.degree:
            return f"degree {f.degree}"
        word = lib.jvdk_factor(f)
        # the text of every result, as a caller reporting them would build it
        texts = [str(f.inv), str(word)]
        nf = None
        if task.family == "Henon":
            if lib.is_algebraic(f):
                return "Henon map classed as algebraic"
            degs = lib.henon_invariants(lib.henon_normalize(f))
            if degs != task.henon_degrees:
                return f"Henon degrees {degs}"
        else:
            nf = lib.normal_form(f)
            texts.append(str(nf.describe()))
            if nf.family != task.family:
                return f"family {nf.family}"
            if task.multipliers and K.to_str(nf.multiplier) not in task.multipliers:
                return f"multiplier {K.to_str(nf.multiplier)}"
            if task.order and nf.order != task.order:
                return f"order {nf.order}"

        g = lib.plane_aut_from_endo(lib.parse_automorphism(task.g, K))
        res = lib.decide_conjugacy(f, g)
        texts.append(str(res.describe()))
        if res.verdict != task.verdict:
            return f"verdict {res.verdict}: {res.reason}"
        if res.verdict == "yes":
            cert = lib.verify_conjugacy_certificate(f, g, res.conjugator)
            texts.append(str(cert.describe()))
            if not cert.valid:
                return "certificate does not verify"

        if nf is not None and nf.family != "I" and (nf.family != "IV" or K.characteristic):
            reason = self._degenerate(K, nf, texts)
            if reason:
                return reason

        alpha = lib.parse_automorphism(task.alpha, K)
        xs = lib.x_alpha(alpha)
        texts.append(str(xs.describe()))
        if tuple(str(pt) for pt in xs.points) != task.x_points:
            return f"X_alpha {[str(pt) for pt in xs.points]}"
        if f.degree >= 2:
            rep = lib.pole_propagation_check(f, alpha)
            texts.append(str(rep.describe()))
            if not (rep.implication_holds and rep.dichotomy_holds):
                return "pole propagation violated"
        return None

    def _degenerate(self, K, nf, texts):
        """The degeneration of the normal form's family member."""
        lib = self.lib
        if nf.family == "II":
            w = lib.degenerate_family_ii(K, nf.P)
            limit = lib.Endo.identity(K, 2)
        elif nf.family == "III":
            w = lib.degenerate_family_iii(K, nf.multiplier, nf.order, nf.P)
            limit = _diagonal(lib, K, nf.multiplier)
        else:
            p = K.characteristic
            w = lib.degenerate_family_iv(K, {p - 1 + p * k: c for k, c in nf.P.items()}, "F1")
            limit = _translation(lib, K)
        if w.limit != limit:
            return f"degeneration limit {w.limit}"
        if not w.verify():
            return "degeneration witness does not verify"
        c = K.from_int(2) if not K.is_zero(K.from_int(2)) else K.one
        if not w.specialization_check(c):
            return "degeneration specialization fails"
        texts.append(str(w.describe()))
        return None


def _diagonal(lib, K, z):
    return lib.Endo([lib.MultiPoly(K, 2, {(1, 0): z}),
                     lib.MultiPoly(K, 2, {(0, 1): K.invert(z)})])


def _translation(lib, K):
    return lib.Endo([lib.MultiPoly.variable(K, 2, 0),
                     lib.MultiPoly.variable(K, 2, 1) + lib.MultiPoly.const(K, 2, K.one)])
