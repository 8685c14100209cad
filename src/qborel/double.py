"""Drinfeld double of the rank-1 quantum Borel algebra.

For H = u_q(b) of type A1 the double D(H) = H^{*cop} x H has the cross
multiplication

    (f x a)(g x b) = sum  f . (a_1 -> g <- S^{-1}(a_3))  x  a_2 b,
    (a -> g)(x) = g(x a),      (g <- a)(x) = g(a x),

and the coproduct Delta(f x a) = sum (f_2 x a_1) x (f_1 x a_2), where
f_1, f_2 are the legs of the convolution coproduct dual to the product
of H.  Everything is exact: structure constants are read off one table,
certified when the double is built: for each k < m and j <= k, the
coefficient c_kj of the one term e^j x g^(2 j) e^(k - j) of cop(e^k) and
the scalar of S^{-1}(g^(2 j) e^(k - j)), m (m + 1)/2 entries.  A basis
monomial g^x e^k enters as a shift of e^k: its coproduct is that of e^k
with both legs shifted by g^x, a fact that certify_grading proves from
certified premises, so the double asks the Borel algebra for the
coproducts of the m powers e^k and the m grouplikes g^x only.  Every
product of keys is read off the table by index in one pass
(_delta_rule).

Elements live in the character basis psi_(alpha,k) x a, keyed
((alpha, k), a), with psi_(alpha,k)(g^x e^y) = delta_(y,k) q^(alpha x).
There the distinguished elements are single terms,

    E = psi_(0,0) x e,   F = nu psi_(t,1) x g^{-1},   K = psi_(t,0) x g,
    t = (n^2 + 1)/2,   nu = q / (q - q^{-1}),

(eps = psi_(0,0), the characters chi_c = psi_(c,0) and the degree-one
functional phi_t = psi_(t,1)), and they satisfy the small quantum group
relations K E K^{-1} = q^2 E, K F K^{-1} = q^{-2} F,
[E, F] = (K - K^{-1})/(q - q^{-1}), with E^m = F^m = 0 and K^m = 1.  The
coproduct of a character key has a closed form with one term per split
of its e-degree and per term of cop(a) (DoubleAlgebra.coproduct), so
Delta(E) has two terms.  The m powers z^k of z = chi_t x g^{-1} are
the grouplikes chi_(t k) x g^{-k}, among them every chi_c x g^{-2c}
(2 t = 1 mod m); central_grouplikes forms them as products and certifies
each central and grouplike, once.  The bicharacter twist
J = sum_a P_a x z^a reads those powers and renormalizes the double's
coproduct to the textbook form Delta(E) = E x K + 1 x E,
Delta(F) = F x 1 + K^{-1} x F.

The dual basis delta_w x a of the pairs (dual monomial, monomial) is
used only at the boundaries: the R-matrix, the double-generators export
and the R check's failure report, which to_delta reaches in closed form,
m dual-basis terms per character key.  With x_0, x_1 the exponents of
g^(x_0) e^(x_1), (delta_f x a)(delta_g x b) is zero unless
g_0 + 2 a_1 = f_0 + 2 f_1 (mod m), a grading certified on the table
whenever a double is built.  The rule is read only on the grading and at
f_0 = 0, where certified facts on the coproduct and on the product of H
turn it into the product of character keys; no product of dual-basis
keys is formed.  The canonical element of the pairing gives the
R-matrix, checked to intertwine the coproduct with its opposite on every
distinguished generator.  The check takes R in H x H*, every key
(eps x u) x (delta_v x 1), and refuses any other key: the first tensor
leg in the character basis (R has m^2 terms there instead of m^3) and
the second leg in the dual basis, where R is sparse.  It forms both
sides grouped by the e-degree k of u = g^x e^k: the product rule is read
once per k and term of Delta(x), and the group exponent x enters by
closed-form shifts (_r_times, _times_r).  Their sums, like every sum
here, add CycScalars.  A failure is mapped to the dual basis on both
legs for its report.  The tests keep one reference for the products and
for both sides of the R check: the cross product walked term by term
from the Hopf data of H (GenericProduct in tests/oracles.py).
"""

from __future__ import annotations

import functools

from .algebra import Element, Monomial, accumulate
from .borel import HopfData

# the scales at which the Drinfeld double is built; each runs the double's
# checks within this budget (the acceptance tests hold (A1, 5) to it)
DOUBLE_SCALES = (("A1", 3), ("A1", 5))
DOUBLE_SCOPE = ("double built at (A1, 3) and (A1, 5) only; other scales exceed "
                "the budget of 60 s and 1 GB for the double's checks")


class DoubleAlgebra:
    """The structure table of the powers e^k and the products read off it for D(u_q(b)), rank 1."""

    def __init__(self, hopf: HopfData):
        A = hopf.algebra
        if A.rank != 1:
            raise ValueError("the double is implemented for rank 1")
        if (A.cartan_type, A.n) not in DOUBLE_SCALES:
            raise ValueError(DOUBLE_SCOPE)
        self.hopf = hopf
        self.algebra = A
        self.field = A.field
        self.m = A.m
        self.unit_mono = A.monomial((0,), (0,))
        # monomials[x][k] = g^x e^k, the basis of H built once
        self.monomials = [[Monomial((x,), (k,)) for k in range(self.m)] for x in range(self.m)]
        # table[k][j] = (c, c_S), built and certified by certify_grading: c is the
        # coefficient of e^j x g^(2 j) e^(k - j) in cop(e^k), c_S the scalar of
        # S^(-1)(g^(2 j) e^(k - j))
        self.table = []
        # eps x 1, with eps = psi_(0,0)
        self.one = Element(self, {((0, 0), self.unit_mono): self.field.one})
        self.certify_grading()

    # -- basis ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.m**4

    def element(self, terms) -> Element:
        """The element sum c psi_(alpha,k) x a over the items (((alpha, k), a), c)."""
        return Element(self, {k: v for k, v in terms.items() if v})

    def unit(self) -> Element:
        return self.one

    # -- the structure table -------------------------------------------

    def cop(self, mono: Monomial):
        """[(m1, m2, c)] over the terms c m1 x m2 of the coproduct of
        mono = g^a e^k in H: c_kj g^a e^j x g^(a + 2 j) e^(k - j) for j in
        [0, k], the certified cop(e^k) with the group exponent of both legs
        shifted by a and the coefficients unchanged (facts 1 and 3 of
        certify_grading)."""
        (a,), (k,) = mono
        monos = self.monomials
        return [(monos[a][j], monos[(a + 2 * j) % self.m][k - j], c)
                for j, (c, _) in enumerate(self.table[k])]

    def certify_grading(self) -> None:
        """Prove the rank-1 product rule, that (f x a)(g x b) = 0 unless
        g_0 + 2 a_1 = f_0 + 2 f_1 (mod m), and that every product of keys is
        read off one table of the m powers e^k; build that table.

        Five facts are used.  Facts 1, 2 and 5 are checked, fact 4 is
        proved from checked products, and fact 3 is proved from the premises
        below; ArithmeticError is raised if a check fails:

        1. each term m1 x m2 of cop(w) has m1_0 = w_0,
           m2_0 = m1_0 + 2 m1_1 and m1_1 + m2_1 = w_1, and cop(e^k) has one
           term for each j in [0, k], checked on the m powers w = e^k: so
           cop(e^k) = sum_j c_kj e^j x g^(2 j) e^(k - j);
        2. each term x1 x x2 x x3 of cop2(e^k) = (cop x id) cop(e^k) has
           x1_0 = 0 and x2_0 = 2 x1_1, and s = S^(-1)(x3) (up to a scalar)
           has s_0 = -2 k and s_1 = x3_1, for every k in [0, m); the first
           two follow from fact 1, since the first leg of each term of
           cop(e^k) is again a power e^j, and the last two are checked on
           the second legs of the cop(e^k) as the table is built;
        3. cop(g^(w_0) e^(w_1)) is cop(e^(w_1)) with the group exponent of
           both legs shifted by w_0 and the coefficients unchanged, for every
           basis monomial w;
        4. e^k g^a = q^(-k a) g^a e^k, e^a e^b = e^(a + b), which is zero
           once a + b >= m, and g^a g^b = g^(a + b), for k, a, b in
           [0, m), proved from the 2 m + 1 products e g, g g^b and e e^b,
           b in [0, m), which are checked;
        5. the counit laws of H on the table: c_kk = c_k0 = 1 and
           S^(-1)(g^(2 k)) has the scalar 1, for every k
           (certify_unit_laws).

        Fact 4 is checked first.  Write [x, y] for the basis monomial
        g^x e^y, so g = [1, 0] and e = [0, 1].  The product is that of the
        rewrite algebra whose basis of normal words build_borel certifies
        (certify_basis, by the diamond lemma): it is associative with the
        unit [0, 0], and [x, 0] [0, y] = [x, y] with coefficient 1, since
        the normal words g^x and e^y concatenate to the normal word g^x e^y.
        The checks give g [b, 0] = [b + 1, 0], e [0, b] = [0, b + 1] (zero
        at b + 1 = m) and e g = q^(-1) [1, 1].  Then, by induction and
        associativity:

        - [a, 0] [b, 0] = [a + b, 0]: a = 0 is the unit law, and
          [a + 1, 0] = g [a, 0], so [a + 1, 0] [b, 0] = g ([a, 0] [b, 0]) =
          g [a + b, 0] = [a + b + 1, 0];
        - [0, a] [0, b] = [0, a + b], zero once a + b >= m, the same way:
          [0, a + 1] = e [0, a] for a + 1 < m, and e 0 = 0;
        - e [a, 0] = q^(-a) [a, 1]: with [1, 1] = g e,
          e [a + 1, 0] = (e g) [a, 0] = q^(-1) g (e [a, 0]) =
          q^(-1 - a) g ([a, 0] e) = q^(-1 - a) [a + 1, 0] e =
          q^(-1 - a) [a + 1, 1];
        - [0, k] [a, 0] = q^(-k a) [a, k] for k < m: [0, k + 1] [a, 0] =
          e ([0, k] [a, 0]) = q^(-k a) (e [a, 0]) [0, k] =
          q^(-(k + 1) a) [a, 0] (e [0, k]) = q^(-(k + 1) a) [a, k + 1].

        So fact 4 holds, and by associativity it gives the product rule for
        any two basis monomials, [u_0, 0] ([0, u_1] [v_0, 0]) [0, v_1]:

            u v = q^(-u_1 v_0) g^(u_0 + v_0) e^(u_1 + v_1),   zero once
            u_1 + v_1 >= m.

        _delta_rule reads its products off the exponents by this rule, and
        the coproduct of a character key has a closed form by it (see
        coproduct).

        Proof of fact 3.  The coproduct of H is the multiplicative extension
        (LetterExtension) of its images of g^a and of e, so cop(g^a e^k) is
        the slotwise product cop(g^a) cop(e^k).  Its premises are certified:
        cop(g^a) = g^a x g^a for every a in [0, m), m single-term
        coproducts, and fact 1 on the powers e^k, so that each term of
        cop(e^k) is c e^j x g^(2 j) e^(k - j).  By the product rule,
        g^a . g^x e^y = g^(a + x) e^y with coefficient 1.
        So (g^a x g^a) (c e^j x g^(2 j) e^(k - j)) is
        c g^a e^j x g^(a + 2 j) e^(k - j): the term shifted by a.  Fact 1
        for g^a e^k follows from fact 1 for e^k.  cop returns these shifts,
        so HopfData is asked for the coproducts of the m powers e^k and the
        m grouplikes g^a only, never for that of g^a e^k with a and k both
        non-zero.

        The table.  table[k][j] holds (c_kj, c_S) with
        S^(-1)(g^(2 j) e^(k - j)) = c_S s, m (m + 1)/2 entries; no product
        of its scalars is formed when it is built.  By facts 1 and 2,
        cop2(e^k) = sum_(i <= j <= k) c_kj c_ji
        e^i x g^(2 i) e^(j - i) x g^(2 j) e^(k - j), so the cross terms of
        e^k, each the exponents (x1_1, x2_1, s_1) of a term of cop2(e^k) and
        its coefficient times that of S^(-1)(x3), are
        (i, j - i, k - j) with the coefficient c_kj c_S c_ji.  And by fact 1
        the convolution delta_(e^(f_1)) . delta_u, the sum over w of the
        coefficient of e^(f_1) x u in cop(w) times delta_w, is zero unless
        u_0 = 2 f_1, where it is c_(w_1, f_1) delta_(e^(w_1)) with
        w_1 = f_1 + u_1 (zero once w_1 >= m).

        Shift lemma.  Let a = g^(a_0) e^k.  By fact 3, cop(a) is cop(e^k)
        with both legs shifted by a_0; by fact 1 each first leg of cop(e^k)
        is some e^j, so by fact 3 again cop(g^(a_0) e^j) is cop(e^j) shifted
        by a_0.  Hence cop2(a) is cop2(e^k) with all three legs shifted by
        a_0 and the coefficients unchanged: x1_0 = a_0 and
        x2_0 = a_0 + 2 x1_1 by fact 2.  S^(-1) is anti-multiplicative with
        S^(-1)(g) = g^(-1), and g^(a_0) x3 is the monomial x3 shifted by a_0,
        so S^(-1)(g^(a_0) x3) = S^(-1)(x3) g^(-a_0) = c_S s g^(-a_0), and by the
        product rule s g^(-a_0) = q^(s_1 a_0) g^(s_0 - a_0) e^(s_1).  So the
        cross terms of a are those of e^k with x1_0 = a_0,
        x2_0 = a_0 + 2 x1_1, s_0 = -(a_0 + 2 k), and each coefficient times
        q^(s_1 a_0).

        Proof of the grading.  In (f x a)(g x b) = sum f.(x1 -> g <- s) x x2 b
        over the terms of cop2(a), the functional (x1 -> delta_g <- s)
        takes u to the coefficient of g in s u x1.  By the product rule,
        only u with u_0 = g_0 - s_0 - x1_0 = g_0 + 2 a_1 can contribute
        (fact 2 and the shift lemma).  The convolution delta_f . delta_u is
        sum_w (coeff of f x u in cop(w)) delta_w, which by fact 1 is zero
        unless u_0 = f_0 + 2 f_1.  So every term vanishes when
        g_0 + 2 a_1 != f_0 + 2 f_1 (mod m).

        With facts 1 and 3, the convolution delta_(g^x e^(f_1)) . delta_u is
        the shift by x of delta_(e^(f_1)) . delta_(g^(-x) u), coefficient
        for coefficient: at u_0 - x = 2 f_1 the one term
        c_(f_1 + u_1, f_1) delta_(g^x e^(f_1 + u_1)).  multiply_characters
        rests on this too (see its docstring).
        """
        m, monos = self.m, self.monomials
        mul, hopf_cop = self.algebra.multiply_monomials, self.hopf.coproduct_monomial
        one, zeta_pow = self.field.one, self.field.zeta_pow
        e, g = monos[0], [row[0] for row in monos]
        powers = {"e": e, "g": g}
        rule = [("e", 1, "g", 1, {monos[1][1]: zeta_pow(-1)})]
        for b in range(m):
            rule.append(("g", 1, "g", b, {g[(b + 1) % m]: one}))
            rule.append(("e", 1, "e", b, {e[b + 1]: one} if b + 1 < m else {}))
        for u, x, v, y, want in rule:
            got = mul(powers[u][x], powers[v][y]).terms
            if got != want:
                raise ArithmeticError(
                    f"product rule: {u}^{x} {v}^{y} is {got}, the rule gives {want}")
        for a in range(m):
            got = hopf_cop(g[a]).terms
            if got != {(g[a], g[a]): one}:
                raise ArithmeticError(f"grouplike: cop(g^{a}) is {got}, not g^{a} x g^{a}")
        antipode_inv, element = self.hopf.antipode_inv, self.algebra.element
        for k in range(m):
            terms = hopf_cop(e[k]).terms
            row = [None] * (k + 1)
            for (m1, m2), c in terms.items():
                j = m1.pbw[0]
                if m1.group[0] or (m2.group[0] - 2 * j) % m or j + m2.pbw[0] != k:
                    raise ArithmeticError(f"grading: cop(e^{k}) has the term {m1} x {m2}")
                (s, cs), = antipode_inv(element({m2: one})).terms.items()
                if (s.group[0] + 2 * k) % m or s.pbw != m2.pbw:
                    raise ArithmeticError(
                        f"grading: the cross terms of e^{k} have x3 = {m2} and S^(-1)(x3) = {s}")
                row[j] = (c, cs)
            # the terms are distinct and the grading fixes each by its j <= k
            if len(terms) != k + 1:
                raise ArithmeticError(f"grading: cop(e^{k}) has {len(terms)} terms, not one per j <= {k}")
            self.table.append(row)
        self.certify_unit_laws()

    def certify_unit_laws(self) -> None:
        """Fact 5 of certify_grading, read on the table: for every k,
        c_kk = 1 and c_k0 = 1, the coefficients of e^k x g^(2 k) and of
        1 x e^k in cop(e^k), and S^(-1)(g^(2 k)) has the scalar 1.
        ArithmeticError names the first entry that fails.

        Through the delta rule they give the unit laws of the cross product:

            (delta_f x 1)(delta_g x b) = (delta_f . delta_g) x b,
            (psi_(alpha,l) x a)(eps x b) = psi_(alpha,l) x a b.

        For the first, a = 1 has the one cross term (0, 0, 0) with the
        coefficient c_00 c_S c_00 = 1 (k = 0), so u = g, x2 b = b and the
        product is the convolution of e^(f_1) at g^(g_0 - f_0) e^(g_1),
        shifted by g^(f_0).  For the second, eps = psi_(0,0) has e-degree 0,
        so only the cross terms of a with x1_1 + s_1 = 0 have u_1 >= 0: the
        one at i = 0 and j = k = a_1, (0, a_1, 0) with the coefficient
        c_kk c_S c_k0 = 1.  The grading puts u at g^(2 l), where the
        convolution of e^l is c_ll delta_(e^l) = delta_(e^l), so the
        character key stays (alpha, l), and by the product rule the
        coefficient q^(-a_1 b_0) and the monomial
        g^(a_0 + b_0) e^(a_1 + b_1) (none once a_1 + b_1 >= m) are those of
        a b.
        """
        one, m = self.field.one, self.m
        for k, row in enumerate(self.table):
            for what, got in ((f"e^{k} x g^{2 * k % m} in cop(e^{k})", row[k][0]),
                              (f"1 x e^{k} in cop(e^{k})", row[0][0]),
                              (f"S^(-1)(g^{2 * k % m})", row[k][1])):
                if got != one:
                    raise ArithmeticError(f"factorization: the scalar of {what} is {got}, not 1")

    # -- the cross product ---------------------------------------------

    def partner_exponent(self, k1) -> int:
        """The group exponent g_0 of the functionals g with k1 (g x b) != 0.

        For k1 = f x a this is f_0 + G mod m, G = 2 f_1 - 2 a_1 the shift
        of the grading that certify_grading proves (_grading_shift).
        """
        ((f0,), (f1,)), am = k1
        return (f0 + self._grading_shift(f1, am)) % self.m

    def _delta_rule(self, f1, am, g0, g1, bm, index, exponent=0):
        """Yield (key, c) over the terms c delta_w x a_2 b of
        (delta_f x a)(delta_g x b) on the grading, with f = e^(f_1), one per
        cross term of a that meets the convolution, w = e^(w_1), keyed as
        the character key ((index - s_1, w_1), a_2 b) (multiply_characters).
        exponent is added to the power of q of every term.

        The table is read by index.  By the table paragraph and the shift
        lemma of certify_grading the cross terms of a = g^(a_0) e^k are
        (x1_1, x2_1, s_1) = (i, j - i, k - j) for i <= j <= k, with
        x1_0 = a_0, x2_0 = a_0 + 2 i, s_0 = -(a_0 + 2 k) and the coefficient
        c_kj c_S c_ji q^(s_1 a_0).  For each, the arrow is nonzero on u =
        g^(g_0 - s_0 - x1_0) e^(g_1 - s_1 - x1_1) only, so u_0 = g_0 + 2 k,
        where by the product rule (fact 4) s u x1 = q^(-(s_1 u_0 + (g_1 - x1_1)
        a_0)) g, and x2 b = q^(-x2_1 b_0) g^(x2_0 + b_0) e^(x2_1 + b_1).  The
        loops run over the cross terms with u_1 >= 0 only.  By fact 1,
        delta_f . delta_u is zero unless u_0 = 2 f_1, where it is
        c_(w_1, f_1) delta_(e^(w_1)) with w_1 = f_1 + u_1 < m.
        """
        m = self.m
        (a0,), (k,) = am
        (b0,), (b1,) = bm
        u0 = (g0 + 2 * k) % m
        if u0 != 2 * f1 % m:
            return
        table, zeta_pow = self.table, self.field.zeta_pow
        exponent -= g1 * a0
        for j in range(max(0, k - g1), k + 1):
            s1 = k - j
            ckj, cs = table[k][j]
            c = ckj * cs
            sigma = (index - s1) % m
            for x11 in range(min(j, g1 - s1) + 1):
                u1, x21 = g1 - s1 - x11, j - x11
                w1, e1 = f1 + u1, x21 + b1
                if w1 >= m or e1 >= m:
                    continue
                ab = Monomial(((a0 + 2 * x11 + b0) % m,), (e1,))
                scale = zeta_pow(s1 * (a0 - u0) + x11 * a0 - x21 * b0 + exponent)
                yield ((sigma, w1), ab), c * table[j][x11][0] * scale * table[w1][f1][0]

    def multiply_characters(self, k1, k2) -> dict:
        """Product of two character keys of the double, as a sparse dict.

        A character key ((alpha, k), a) stands for psi_(alpha,k) x a, where
        psi_(alpha,k) = sum_x q^(alpha x) delta_(g^x e^k), so that
        eps = psi_(0,0), chi_c = psi_(c,0) and phi_t = psi_(t,1).  By the
        grading, (delta_(g^x e^(f_1)) x a)(delta_(g^y e^(g_1)) x b) is zero
        unless y = x + G with G = 2 f_1 - 2 a_1, and by facts 1 and 3 of
        certify_grading each of its terms is q^(-s_1 x) times the term at
        x = 0, with w shifted by g^x.  Summing over x with the weights
        q^(alpha x + beta y) gives
        (psi_(alpha,f_1) x a)(psi_(beta,g_1) x b)
            = q^(beta G) sum c psi_(alpha + beta - s_1, w_1) x a_2 b
        over the terms c delta_w x a_2 b (w = e^(w_1)) of the delta rule at
        x = 0; _delta_rule reads them off the table by index and emits them
        with these keys and the power q^(beta G) folded in.  Nothing is
        cached: the check of R reads each pair once per side and generator
        (_r_times, _times_r).
        """
        (alpha, f1), am = k1
        (beta, g1), bm = k2
        G = self._grading_shift(f1, am)
        return accumulate({}, self._delta_rule(f1, am, G, g1, bm, alpha + beta, beta * G))

    def _grading_shift(self, f1, am) -> int:
        """G = 2 f_1 - 2 a_1 mod m: (delta_(g^x e^(f_1)) x a)(delta_(g^y e^l) x b)
        is zero unless y = x + G (the grading of certify_grading)."""
        return (2 * f1 - 2 * am.pbw[0]) % self.m

    def multiply(self, X: Element, Y: Element) -> Element:
        """X Y in character keys: the sum of c d multiply_characters(k1, k2)
        over the terms c k1 of X and d k2 of Y.  Every product that verify
        and export form has single-key factors, so each reads the delta
        rule once.
        """
        out = {}
        for k1, c in X.terms.items():
            for k2, d in Y.terms.items():
                cd = c * d
                accumulate(out, ((key, cd * v) for key, v in self.multiply_characters(k1, k2).items()))
        return Element(self, out)

    # -- coproduct -----------------------------------------------------

    def coproduct(self, X: Element) -> dict:
        """Delta(X) as a dict over pairs of character keys, in closed form:

            Delta(psi_(alpha,k) x a) = sum_(k_1 + k_2 = k) sum_(cop(a))
                c (psi_(alpha - k_1, k_2) x a_1) x (psi_(alpha, k_1) x a_2),

        over the terms c a_1 x a_2 of cop(a); no product in H is formed.

        Proof.  Delta(f x a) = sum (f_2 x a_1) x (f_1 x a_2), where
        Delta(f)(u x v) = f(u v) with f_1 read on u and f_2 on v.  By the
        product rule (fact 4 of certify_grading), for k < m

            psi_(alpha,k)(u v) = [u_1 + v_1 = k] q^(-u_1 v_0) q^(alpha (u_0 + v_0)).

        Summing delta_u x delta_v against it over u_0 and v_0 at fixed
        u_1 = k_1 gives psi_(alpha,k_1) on u and psi_(alpha - k_1, k - k_1)
        on v, so Delta(psi_(alpha,k)) = sum_(k_1) psi_(alpha,k_1) x
        psi_(alpha - k_1, k - k_1).
        """
        m = self.m
        out = {}
        for ((alpha, k), am), c in X.terms.items():
            cop = self.cop(am)
            for k1 in range(k + 1):
                f1, f2 = (alpha, k1), ((alpha - k1) % m, k - k1)
                accumulate(out, ((((f2, a1), (f1, a2)), c * ca) for a1, a2, ca in cop))
        return out


# -- distinguished functionals and generators --------------------------


def grouplike(dbl: DoubleAlgebra, c: int, s: int) -> Element:
    """chi_c x g^s, with chi_c = psi_(c,0)."""
    return dbl.element({((c % dbl.m, 0), dbl.algebra.monomial((s,), (0,))): dbl.field.one})


def _relations_hold(dbl, E, F, K, K_inv, K_prime, q) -> str | None:
    one = dbl.unit()
    qi = dbl.field.zeta_pow(-1)
    if K * K_inv != one or K_inv * K != one:
        return "K inverse"
    if K * E != (E * K).scale(q * q):
        return "K E K^-1 = q^2 E"
    if K * F != (F * K).scale(qi * qi):
        return "K F K^-1 = q^-2 F"
    comm = E * F - F * E
    target = (K - K_inv).scale((q - qi).inv())
    if comm != target:
        return "[E, F] = (K - K^-1)/(q - q^-1)"
    if E.power(dbl.m) != dbl.element({}) or F.power(dbl.m) != dbl.element({}):
        return "nilpotency at order m"
    if K.power(dbl.m) != one:
        return "K order m"
    for x in (E, F, K):
        if K_prime * x != x * K_prime:
            return "K' central"
    if dbl.coproduct(K_prime) != dtensor_of(K_prime, K_prime):
        return "K' grouplike"
    return None


def identify_generators(dbl: DoubleAlgebra) -> dict:
    """Distinguished E, F, K, K^{-1}, K' with the closed-form parameters.

    E = psi_(0,0) x e and K = psi_(t,0) x g generate the small-quantum-group
    copy, K' = psi_(t-1,0) x g is the central grouplike with
    K K' = eps x g^2, and F = nu psi_(t,1) x g^{-1} is the degree-one
    functional normalized so [E, F] = (K - K^{-1})/(q - q^{-1}); each is
    one character key.
    The closed forms are validated against the full relation set; if any
    relation fails, only {"residual": name of the failing relation} is
    returned.
    """
    m = dbl.m
    q = dbl.field.zeta_pow(1)
    qi = dbl.field.zeta_pow(-1)
    t = (m + 1) // 2
    A = dbl.algebra
    E = dbl.element({((0, 0), A.monomial((0,), (1,))): dbl.field.one})
    nu = q * (q - qi).inv()
    F = dbl.element({((t, 1), A.monomial((-1,), (0,))): nu})
    K = grouplike(dbl, t, 1)
    K_inv = grouplike(dbl, m - t, -1)
    K_prime = grouplike(dbl, t - 1, 1)
    residual = _relations_hold(dbl, E, F, K, K_inv, K_prime, q)
    if residual is not None:
        return {"residual": residual}
    return {
        "E": E, "F": F, "K": K, "K_inv": K_inv, "K_prime": K_prime,
        "t": t, "q": q, "residual": None,
    }


def central_grouplikes(dbl: DoubleAlgebra, gens: dict) -> list[Element]:
    """The m powers z^k of z = chi_t x g^{-1}, indexed by k, each verified
    central and grouplike.

    Each z^k is formed as the product z^(k-1) z, so the list holds the
    powers of z; DoubleTwist reads them from it.  Central means commuting
    with E, F and K.  As k runs over Z/m, z^k = chi_(t k) x g^(-k) runs
    over the grouplikes chi_c x g^(-2c) (c = t k, and 2 t = 1 mod m).
    ArithmeticError names the first power that fails, or says that the
    powers are not m distinct elements.
    """
    z = grouplike(dbl, gens["t"], -1)
    out = [dbl.unit()]
    for _ in range(dbl.m - 1):
        out.append(out[-1] * z)
    E, F, K = gens["E"], gens["F"], gens["K"]
    for k, zk in enumerate(out):
        for x in (E, F, K):
            if zk * x != x * zk:
                raise ArithmeticError(f"claimed central grouplike z^{k} fails to commute")
        if dbl.coproduct(zk) != dtensor_of(zk, zk):
            raise ArithmeticError(f"central element z^{k} must be grouplike")
    if len({frozenset(zk.terms.items()) for zk in out}) != dbl.m:
        raise ArithmeticError(f"the central grouplikes are not {dbl.m} distinct elements")
    return out


def double_coproduct_formula_check(dbl: DoubleAlgebra, gens: dict):
    """The double's own coproduct on E and F, before any twist.

    Verifies Delta(E) = E x K K' + 1 x E and
    Delta(F) = F x K'^{-1} + K^{-1} x F exactly.  Returns None on
    success, else the name of the failing formula.
    """
    E, F, K, K_inv, K_prime = (
        gens["E"], gens["F"], gens["K"], gens["K_inv"], gens["K_prime"]
    )
    one = dbl.unit()
    kkp = K * K_prime
    if dbl.coproduct(E) != dtensor_add(dtensor_of(E, kkp), dtensor_of(one, E)):
        return "Delta(E) = E x KK' + 1 x E"
    m = dbl.m
    kp_inv = grouplike(dbl, (1 - (m + 1) // 2) % m, -1)
    if K_prime * kp_inv != one:
        return "K' inverse"
    if dbl.coproduct(F) != dtensor_add(dtensor_of(F, kp_inv), dtensor_of(K_inv, F)):
        return "Delta(F) = F x K'^-1 + K^-1 x F"
    return None


# -- tensor helpers over the double ------------------------------------


def dtensor_of(X: Element, Y: Element) -> dict:
    out = {}
    for k1, c1 in X.terms.items():
        for k2, c2 in Y.terms.items():
            out[(k1, k2)] = c1 * c2
    return out


def dtensor_add(T1: dict, T2: dict) -> dict:
    return accumulate(dict(T1), T2.items())


def to_delta(dbl: DoubleAlgebra, terms: dict, leg: int | None = None) -> dict:
    """terms over character keys ((alpha, k), a) moved to dual-basis keys
    (g^x e^k, a), in closed form: psi_(alpha,k) = sum_x q^(alpha x)
    delta_(g^x e^k), m terms per key, summed.

    With leg None the keys of terms are keys of the double; with leg i they
    are tuples of keys (tensors) and only the i-th leg moves.
    """
    m, monos, zeta_pow = dbl.m, dbl.monomials, dbl.field.zeta_pow
    out = {}
    for key, c in terms.items():
        (alpha, k), am = key if leg is None else key[leg]
        moved = ((monos[x][k], am) for x in range(m))
        if leg is not None:
            moved = (key[:leg] + (d,) + key[leg + 1:] for d in moved)
        accumulate(out, zip(moved, (c * zeta_pow(alpha * x) for x in range(m))))
    return out


def dtensor_swap(T: dict) -> dict:
    return {(k2, k1): v for (k1, k2), v in T.items()}


# -- bicharacter twist -------------------------------------------------


class DoubleTwist:
    """The grouplike twist J = sum_a P_a x z^a on the double.

    W = K^t, t = (m+1)/2, P_a = m^(-1) sum_b q^(-a b) W^b are the spectral
    idempotents of W, and z^a is read from zpow, the powers of
    z = chi_t x g^{-1} that central_grouplikes formed and certified central
    and grouplike.  Every character key psi_(alpha,k) x a is a W-weight
    vector of degree a_1 - k, W x = q^(degree x) x W, so P_b x = x P_(b - d)
    for a key x of degree d.  Hence conjugating by J multiplies the second
    leg of a coproduct term by z^(degree of the first leg); that is how
    twisted_coproduct evaluates it without expanding J.  verify() certifies
    each ingredient of that argument on the actual algebra.

    J is a 2-cocycle, (J x 1)(Delta x id)(J) = (1 x J)(id x Delta)(J).  The
    premises are W^m = 1, z^m = 1 and Delta(W) = W x W (verify), and, for
    every a, z^a grouplike and commuting with K (central_grouplikes); q is
    a primitive m-th root of unity.  Proof.  By W^m = 1 and
    sum_c q^(c (i - j)) = m [i = j mod m], the P_a are orthogonal
    idempotents with sum 1, P_a P_c = [a = c] P_a, indexed by a in Z/m,
    and by z^m = 1 so is z^a.  By Delta(W) = W x W, and Delta multiplicative,

        sum_(c + d = b) P_c x P_d
            = m^(-2) sum_(i, j) q^(-b j) sum_c q^(c (j - i)) W^i x W^j
            = m^(-1) sum_j q^(-b j) W^j x W^j = Delta(P_b).

    As zpow holds the powers of z, z^c z^d = z^(c + d).  So
    (J x 1)(Delta x id)(J) = sum_(a, c, d) P_a P_c x z^a P_d x z^(c + d)
    = sum_(a, d) P_a x z^a P_d x z^(a + d).  By Delta(z^a) = z^a x z^a,
    (1 x J)(id x Delta)(J) = sum_(a, d) P_a x P_d z^a x z^(a + d).  z^a
    commutes with K, hence with W = K^t and with every P_d, so the two
    sides agree.  This is the standard argument for a bicharacter twist on
    commuting grouplikes (Majid, Foundations of Quantum Group Theory, 2.3).
    """

    def __init__(self, dbl: DoubleAlgebra, gens: dict, zpow: list[Element]):
        self.dbl = dbl
        self.gens = gens
        self.zpow = zpow

    @property
    def z(self) -> Element:
        return self.zpow[1]

    @functools.cached_property
    def W(self) -> Element:
        # formed on first use, which verify puts after certify_unit_laws
        return self.gens["K"].power((self.dbl.m + 1) // 2)

    @staticmethod
    def degree(key) -> int:
        (_, k), am = key
        return am.pbw[0] - k

    def verify(self) -> None:
        """Certify the premises of the class docstring that are not
        central_grouplikes'; ArithmeticError names the first obligation
        that fails.  No product is formed before the unit laws of the
        table are certified (certify_unit_laws).

        W and z have order dividing m.  Delta(W) = W x W is read off the
        closed form of DoubleAlgebra.coproduct.  Every character key
        x = psi_(alpha,k) x a is a weight vector, W x = q^(degree x) x W with
        degree x = a_1 - k.  Proof: if W x = q^d x W and W y = q^d' y W,
        then W x y = q^(d + d') x y W by associativity (which
        test_associativity probes).  Every key is a product of generating
        keys with coefficient 1,

            psi_(alpha,k) x g^(a_0) e^(a_1)
                = (psi_(alpha,k) x 1) (eps x g)^(a_0) (eps x e)^(a_1),

        and degree is additive along it: -k + 0 a_0 + 1 a_1.  So the
        weights are checked on the m^2 + 2 generating keys only, each by
        multiply_characters with the one key of W on either side.  The
        factorization is the unit law (psi_(alpha,l) x a)(eps x b) =
        psi_(alpha,l) x a b, read off the table entries of fact 5 of
        certify_grading, which are certified again here (certify_unit_laws):
        it gives (psi_(alpha,k) x 1)(eps x a) = psi_(alpha,k) x a,
        (eps x g)(eps x b) = eps x g b and (eps x e)(eps x e^y) =
        eps x e^(y + 1).
        """
        dbl = self.dbl
        m, zeta_pow = dbl.m, dbl.field.zeta_pow
        dbl.certify_unit_laws()
        unit = dbl.unit()
        for name, x in (("W", self.W), ("z", self.z)):
            if x.power(m) != unit:
                raise ArithmeticError(f"{name} must have order dividing {m}")
        if dbl.coproduct(self.W) != dtensor_of(self.W, self.W):
            raise ArithmeticError("W must be grouplike: Delta(W) = W x W")
        if len(self.W.terms) != 1:
            raise ArithmeticError("W must be a single character key")
        w = next(iter(self.W.terms))
        A = dbl.algebra
        keys = [((alpha, k), dbl.unit_mono) for alpha in range(m) for k in range(m)]
        keys += [((0, 0), A.monomial((1,), (0,))), ((0, 0), A.monomial((0,), (1,)))]
        for key in keys:
            scale = zeta_pow(self.degree(key))
            right = dbl.multiply_characters(key, w)
            if dbl.multiply_characters(w, key) != {k: v * scale for k, v in right.items()}:
                raise ArithmeticError(f"character key {key} must be a weight vector for W")

    def twisted_coproduct(self, X: Element) -> dict:
        dbl = self.dbl
        out = {}
        for (k1, k2), c in dbl.coproduct(X).items():
            zd = self.zpow[self.degree(k1) % dbl.m]
            right = dbl.multiply(zd, dbl.element({k2: dbl.field.one}))
            accumulate(out, (((k1, k), c * v) for k, v in right.terms.items()))
        return out


def bicharacter_twist(dbl: DoubleAlgebra, gens: dict, zpow: list[Element]) -> DoubleTwist:
    """The twist on the powers zpow of z (central_grouplikes), verified."""
    tw = DoubleTwist(dbl, gens, zpow)
    tw.verify()
    return tw


# -- R-matrix ----------------------------------------------------------


def r_matrix(dbl: DoubleAlgebra) -> dict:
    """The canonical element sum_u (eps x u) x (delta_u x 1) over the basis
    monomials u, m^2 terms: the first leg in character keys, with
    eps = psi_(0,0) = sum_c delta_(g^c), and the second in dual-basis keys.
    In the dual basis on both legs it is sum_i (eps x a_i) x (a^i x 1) =
    sum_(u, c) (delta_(g^c) x u) x (delta_u x 1), m^3 terms."""
    eps, one = (0, 0), dbl.field.one
    return {((eps, u), (u, dbl.unit_mono)): one for u in dbl.algebra.basis()}


def r_matrix_check(dbl: DoubleAlgebra, gens: dict, R: dict):
    """R must intertwine the coproduct with its opposite on E, F, K, K'.

    R is a tensor in H x H*, as r_matrix returns it: every key is
    ((eps, u), (delta_v, 1)), with its first leg a character key and its
    second a dual-basis key, and any coefficient.  A key of another form
    is refused: the check returns {"premise": ..., "key": ...} with the
    first such key in sorted order.  Otherwise it returns None when
    R Delta(x) = Delta^op(x) R holds for all four generators, and else a
    dict with the generator, the residual term count, the first differing
    tensor key in sorted order and that key's coefficient on each side
    (zero where a side lacks it), all in the dual basis on both legs.

    Both sides are formed in the basis of R, by _r_times and _times_r, and
    compared there; the change of basis of the first leg is invertible, so
    they agree exactly when they agree in the dual basis.  Delta(x) and
    Delta^op(x) come in character keys on both legs; their second leg
    enters in the dual basis inside the sums.
    """
    by_dual, outside = _r_by_dual(dbl, R)
    if outside:
        return {"premise": "every key of R is (eps x u) x (delta_v x 1)", "key": min(outside)}
    for name in ("E", "F", "K", "K_prime"):
        DX = dbl.coproduct(gens[name])
        lhs = _r_times(dbl, by_dual, DX)
        rhs = _times_r(dbl, dtensor_swap(DX), by_dual)
        if lhs != rhs:
            lhs, rhs = to_delta(dbl, lhs, leg=0), to_delta(dbl, rhs, leg=0)
            diff = dtensor_add(lhs, {k: -v for k, v in rhs.items()})
            key = min(diff)
            zero = dbl.field.zero
            return {
                "generator": name,
                "residual_terms": len(diff),
                "key": key,
                "lhs": lhs.get(key, zero),
                "rhs": rhs.get(key, zero),
            }
    return None


def _r_by_dual(dbl: DoubleAlgebra, R: dict):
    """(by_dual, outside): (v_0, v_1) -> [(u, c)] over the terms
    c (eps x u) x (delta_v x 1) of R, and the keys of R of any other form."""
    by_dual, outside = {}, []
    for key, c in R.items():
        (f, u), (v, b) = key
        if f == (0, 0) and b == dbl.unit_mono:
            by_dual.setdefault((v.group[0], v.pbw[0]), []).append((u, c))
        else:
            outside.append(key)
    return by_dual, outside


def _r_times(dbl: DoubleAlgebra, by_dual: dict, T: dict) -> dict:
    """R T, for R in H x H* (by_dual, see _r_by_dual) and a tensor T in
    character keys on both legs, with the first leg of the product in
    character keys and the second in dual-basis keys.

    The second leg of T enters in the dual basis, by psi_(alpha,l) =
    sum_(w_0) q^(alpha w_0) delta_(g^(w_0) e^l): its coefficient times
    q^(alpha w_0).  A term of R is (eps x g^x e^k) x (delta_v x 1).
    On the second leg, (delta_v x 1)(delta_w x b) is non-zero for one
    group exponent of v only (_dual_unit_times), so each term of T meets,
    per e-degree j of v and per w_0, the terms of R at one v.  On the first
    leg,

        (eps x g^x e^k)(psi_(beta,l) x b) = (eps x g^x) [(eps x e^k)(psi_(beta,l) x b)]

    term by term, with (eps x g^x) acting by the closed form of
    _grouplike_move.  Proof: by the shift lemma of certify_grading the
    cross terms of g^x e^k are those of e^k with coefficient q^(s_1 x),
    x1_0 = x and x2_0 = x + 2 x1_1, and s_0 = -(x + 2 k).  In _delta_rule
    (f_0 = 0 and f_1 = 0 for eps, g_0 = G = -2 k, so the arrow's u_0 = 0), a
    cross term meets the same convolution term at every x, and next to
    x = 0 its scale gains q^(s_1 x + x1_1 x - l x) = q^(-u_1 x), and a_2 b
    gains g^x.  The convolution is that of e^0, whose one term at
    g^0 e^(u_1) has w_1 = u_1 by fact 1: the output key has e-degree u_1,
    and q^(-u_1 x) is the factor _grouplike_move puts on it.  So the product rule is
    read once per e-degree k and term of T, not once per term of R.

    Per term of T, the products that do not depend on w_0 (its
    coefficient, the terms of (eps x e^k)(first leg) and the row of
    _dual_unit_times) are formed once per e-degree k of u and j of v; an
    output term then costs its power of q and the coefficient of R.
    """
    m, monos, zeta_pow = dbl.m, dbl.monomials, dbl.field.zeta_pow
    out = {}
    for (k1, ((alpha, l2), b)), c in T.items():
        lefts = {}  # k -> c times the terms of (eps x e^k)(first leg of T)
        for j in range(m):
            shift, row = _dual_unit_times(dbl, j, l2)
            if not row:
                continue
            prods = {}  # k -> [(key, [(w'_1, product)])]: lefts[k] times the row
            for w0 in range(m):
                y = (w0 - shift) % m
                for u, cr in by_dual.get((y, j), ()):
                    (x,), (k,) = u
                    got = prods.get(k)
                    if got is None:
                        left = lefts.get(k)
                        if left is None:
                            e_k = ((0, 0), monos[0][k])
                            left = lefts[k] = [(key, c * cl) for key, cl
                                               in dbl.multiply_characters(e_k, k1).items()]
                        got = prods[k] = [(key, [(w1p, cl * cc) for w1p, cc in row])
                                          for key, cl in left]
                    for key, terms in got:
                        moved, e = _grouplike_move(dbl, x, key)
                        scale = cr * zeta_pow(alpha * w0 + e)
                        accumulate(out, (((moved, (monos[y][w1p], b)), scale * p)
                                         for w1p, p in terms))
    return out


def _grouplike_move(dbl: DoubleAlgebra, x: int, key):
    """(key', e): (eps x g^x)(psi_(beta,l) x b) = q^e psi_(beta,l) x b', with
    key = ((beta, l), b), b' = g^(x + b_0) e^(b_1) and e = -l x.

    Proof: g^x has the one cross term g^x x g^x x g^(-x) (S^(-1)(g^x) =
    g^(-x)), and eps is the unit of H*, so the product is
    (g^x -> psi_(beta,l) <- g^(-x)) x g^x b.  The arrow takes u to
    psi_(beta,l)(g^(-x) u g^x), and by the product rule (fact 4 of
    certify_grading) g^(-x) u g^x = q^(-u_1 x) u, with u_1 = l wherever
    psi_(beta,l) is non-zero; g^x b = g^(x + b_0) e^(b_1) with
    coefficient 1.
    """
    (beta, l), ((b0,), (b1,)) = key
    return ((beta, l), dbl.monomials[(x + b0) % dbl.m][b1]), -l * x


def _dual_unit_times(dbl: DoubleAlgebra, j: int, w1: int):
    """(shift, row): for every w_0 and b, with y = w_0 - shift,
    (delta_(g^y e^j) x 1)(delta_(g^(w_0) e^(w_1)) x b) is the sum of
    c delta_(g^y e^(w'_1)) x b over the items (w'_1, c) of row, and the
    product is zero at every other group exponent of the left factor.

    By the unit law of fact 5 (certify_unit_laws) the product is
    (delta_(g^y e^j) . delta_w) x b.  By the grading it is zero unless
    y = w_0 - 2 j, so shift = 2 j, and by facts 1 and 3 the convolution is
    that of e^j with g^(w_0 - y) e^(w_1) = g^(2 j) e^(w_1), shifted by
    g^y: the one term c_(w'_1, j) delta_(g^y e^(w'_1)) with
    w'_1 = j + w_1, read off the table, and none once w'_1 >= m.
    """
    m, w = dbl.m, j + w1
    return 2 * j % m, [(w, dbl.table[w][j][0])] if w < m else []


def _times_r(dbl: DoubleAlgebra, T: dict, by_dual: dict) -> dict:
    """T R, for a tensor T in character keys on both legs and R in H x H*
    (by_dual, see _r_by_dual), with the first leg of the product in
    character keys and the second in dual-basis keys.

    The second leg of T enters in the dual basis as in _r_times.  A term
    of R is (eps x u) x (delta_v x 1), u = g^x e^k.  On the first leg,
    (psi_(alpha,l) x a)(eps x u) = psi_(alpha,l) x a u by the unit law of
    fact 5 (certify_unit_laws), and by the product rule (fact 4)
    a u = q^(-a_1 x) g^(a_0 + x) e^(a_1 + k), zero once a_1 + k >= m: no
    cross product is formed.  On the second leg, (delta_w x b)(delta_v x 1)
    is zero unless v_0 = w_0 + G, G = 2 w_1 - 2 b_1 (the grading, read by
    partner_exponent), and by the lemma of multiply_characters it is the
    product at w_0 = 0 with each term c delta_(e^(w'_1)) x b' moved to
    q^(-s_1 w_0) c delta_(g^(w_0) e^(w'_1)) x b'.  At w_0 = 0 it is
    (psi_(0,w_1) x b)(psi_(0,j) x 1) in character keys, where the
    character index of each term is sigma = -s_1: the product rule is
    read once per term of T and e-degree j of v, and each term moves by
    q^(sigma w_0).

    Per term of T and e-degree j, the products that do not depend on w_0
    (its coefficient times the terms of that product) are formed once; an
    output term then costs its power of q and the coefficient of R.
    """
    m, unit, monos, zeta_pow = dbl.m, dbl.unit_mono, dbl.monomials, dbl.field.zeta_pow
    out = {}
    for ((f, am), ((alpha, w1), b)), c in T.items():
        (a0,), (a1,) = am
        for j in range(m):
            psi = dbl.multiply_characters(((0, w1), b), ((0, j), unit))
            right = [(sigma, w1p, ab, c * cr) for ((sigma, w1p), ab), cr in psi.items()]
            for w0 in range(m) if right else ():
                w = monos[w0][w1]
                for u, cu in by_dual.get((dbl.partner_exponent((w, b)), j), ()):
                    (x,), (k,) = u
                    if a1 + k >= m:
                        continue
                    left = (f, monos[(a0 + x) % m][a1 + k])
                    e0 = alpha * w0 - a1 * x
                    accumulate(out, (((left, (monos[w0][w1p], ab)),
                                      cu * zeta_pow(e0 + sigma * w0) * p)
                                     for sigma, w1p, ab, p in right))
    return out


def build_double(hopf: HopfData) -> DoubleAlgebra:
    return DoubleAlgebra(hopf)
