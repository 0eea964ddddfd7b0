package exact

import (
	"sort"

	"repro/internal/safedim"
)

// Simulation of Simplicity (Edelsbrunner & Mücke, ACM TOG 1990).
//
// When an orientation determinant is exactly zero the point-in-simplex test
// is ambiguous: depending on evaluation order a critical point sitting on a
// cell boundary may be reported by both neighbouring cells or by neither.
// SoS resolves every such tie deterministically by evaluating the sign of
// the determinant of a symbolically perturbed matrix, where data entry
// (vertex g, component c) is perturbed by ε^(2^idx) with a globally unique
// index idx. For sufficiently small ε > 0 the perturbed determinant is
// nonzero and its sign is the coefficient of the lowest-order surviving
// monomial — which this package finds by enumerating the partial matchings
// of perturbable entries in increasing ε-order and returning the first
// nonzero mixed partial derivative (a minor of the original matrix).
//
// Because the perturbation is attached to global (vertex, component) pairs,
// two cells sharing a vertex always see the same perturbed value, so the
// resolved detection result is globally consistent: a critical point on a
// shared face is reported by exactly one of the incident simplices.

// SoSSign returns the sign of det(m) under Simulation of Simplicity.
// m is an n×n matrix (n <= 4 in this repository); pert has the same shape
// and holds the global perturbation index for each perturbable entry, or
// -1 for entries that are exact by construction (the homogeneous column of
// ones and the query point's row).
//
// The result is never 0 as long as some transversal of perturbable entries
// exists whose complementary minor is nonzero — true for every orientation
// matrix built by package cp.
//
// SoSSign is the slow generic reference: it recomputes the determinant and
// re-enumerates the perturbation order on every call. The detectors use
// the table-driven SoSOrient2Sign/SoSOrient3Sign, which the tests check
// against it.
func SoSSign(m [][]int64, pert [][]int) int {
	if s := detSignN(m); s != 0 {
		return s
	}
	subsets := perturbationSubsets(pert)
	n := len(m)
	work := make([][]int64, n)
	rowbuf := make([]int64, safedim.MustProduct(n, n))
	for i := range work {
		work[i] = rowbuf[i*n : (i+1)*n]
	}
	for _, s := range subsets {
		for r := 0; r < n; r++ {
			copy(work[r], m[r])
		}
		for _, p := range s.positions {
			for c := 0; c < n; c++ {
				work[p.r][c] = 0
			}
			work[p.r][p.c] = 1
		}
		if sg := detSignN(work); sg != 0 {
			return sg
		}
	}
	return 0
}

type matchPos struct{ r, c int }

type matching struct {
	positions []matchPos
	// indices holds the global perturbation indices, sorted descending,
	// used to order matchings by the magnitude of their ε-monomial.
	indices []int
}

// perturbationSubsets enumerates every nonempty partial matching of
// perturbable positions (distinct rows; duplicate columns are allowed and
// simply yield zero minors) ordered by increasing ε-exponent, i.e. the
// order in which SoS inspects the mixed partial derivatives.
func perturbationSubsets(pert [][]int) []matching {
	n := len(pert)
	var all []matching
	var rec func(row int, cur []matchPos)
	rec = func(row int, cur []matchPos) {
		if row == n {
			if len(cur) > 0 {
				pos := make([]matchPos, len(cur))
				copy(pos, cur)
				idx := make([]int, len(cur))
				for i, p := range cur {
					idx[i] = pert[p.r][p.c]
				}
				sort.Sort(sort.Reverse(sort.IntSlice(idx)))
				all = append(all, matching{positions: pos, indices: idx})
			}
			return
		}
		// Skip this row.
		rec(row+1, cur)
		// Or perturb one entry of this row.
		for c := range pert[row] {
			if pert[row][c] >= 0 {
				rec(row+1, append(cur, matchPos{row, c}))
			}
		}
	}
	rec(0, nil)
	sort.Slice(all, func(i, j int) bool {
		return lessEps(all[i].indices, all[j].indices)
	})
	return all
}

// lessEps reports whether the ε-monomial with exponent Σ 2^a[i] is larger
// (i.e. earlier in SoS order) than the one with exponent Σ 2^b[i].
// A larger monomial corresponds to a smaller exponent bitset, compared as
// binary numbers via the descending-sorted index lists.
func lessEps(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// SoSOrient2Sign and SoSOrient3Sign resolve an exactly zero orientation
// determinant by Simulation of Simplicity from static plan tables. m is
// an orientation matrix: its last column is all ones, row r carries the
// data of vertex ids[r] (perturbation index of entry (r,c) is
// ids[r]*(n-1)+c for the n-1 data columns; the ones column is exact),
// and row `replace` (or none if -1) is the unperturbed origin row
// (0, …, 0, 1).
//
// Precondition: det(m) is exactly zero. The functions never evaluate
// det(m) itself; they walk the ε-ordered perturbation minors only. Every
// caller reaches them after a certified filter returned 0 (Orient2Sign's
// exact int64 path, Orient3Sign's certified-zero, exact int128 or wide
// big.Int path), and all of those zeros are exact, so the sign returned
// is SoSSign's. On a nonsingular m the result is meaningless.
//
// Because the perturbation indices are an order-preserving function of
// the vertex ids, the ε-order of the perturbation subsets depends only on
// the rank order of the ids and on `replace`. The tables hold, for every
// (n, replace, rank order), the ordered subset list of perturbationSubsets
// compiled into signed minors (see compilePlan), so each call is a table
// lookup followed by direct minor evaluations until one is nonzero.
func SoSOrient2Sign(m *[3][3]int64, ids *[3]int, replace int) int {
	plans := sosPlans3[replace+1][rankCode3(ids)]
	for i := range plans {
		p := &plans[i]
		r, c := &p.rows, &p.cols
		var s int
		switch p.kind {
		case sosHom2:
			s = cmp64(m[r[0]][c[0]], m[r[1]][c[0]])
		case sosEntry:
			s = cmp64(m[r[0]][c[0]], 0)
		default: // sosOne; a 3×3 matrix has no larger proper minors
			s = 1
		}
		if s != 0 {
			return s * int(p.sign)
		}
	}
	return 0
}

// SoSOrient3Sign is SoSOrient2Sign for the 4×4 (3D) orientation matrix.
func SoSOrient3Sign(m *[4][4]int64, ids *[4]int, replace int) int {
	plans := sosPlans4[replace+1][rankCode4(ids)]
	for i := range plans {
		p := &plans[i]
		r, c := &p.rows, &p.cols
		var s int
		switch p.kind {
		case sosHom3:
			// Translated by row r2 the ones column drops out, leaving a
			// 2×2 of differences; exact in 128 bits for entries below
			// 2^62 in magnitude. The &3 masks drop the bounds checks.
			a, b, o := &m[r[0]&3], &m[r[1]&3], &m[r[2]&3]
			c0, c1 := c[0]&3, c[1]&3
			s = Mul64(a[c0]-o[c0], b[c1]-o[c1]).Sub(Mul64(a[c1]-o[c1], b[c0]-o[c0])).Sign()
		case sosHom2:
			s = cmp64(m[r[0]&3][c[0]&3], m[r[1]&3][c[0]&3])
		case sosData2:
			a, b := &m[r[0]&3], &m[r[1]&3]
			c0, c1 := c[0]&3, c[1]&3
			s = Mul64(a[c0], b[c1]).Sub(Mul64(a[c1], b[c0])).Sign()
		case sosEntry:
			s = cmp64(m[r[0]&3][c[0]&3], 0)
		default: // sosOne
			s = 1
		}
		if s != 0 {
			return s * int(p.sign)
		}
	}
	return 0
}

// cmp64 returns the sign of a-b, exactly.
func cmp64(a, b int64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	}
	return 0
}

// sosPlan is one compiled SoS step. Replacing each perturbed row r of m
// by the unit row e_c of its matched column c (the mixed partial
// derivative of the perturbed determinant) leaves a matrix whose
// determinant is sign times the minor described by kind, rows and cols.
type sosPlan struct {
	kind uint8    // minor shape, one of the sos* kinds below
	sign int8     // ±1
	rows [3]uint8 // minor rows, ascending
	cols [2]uint8 // minor data columns, ascending (never the ones column)
}

// Minor shapes. Perturbation never matches the ones column, so every
// minor keeps it unless the origin row was expanded away with it:
// homogeneous minors (rows plus the ones column) and data minors.
const (
	sosOne   = iota // the minor is 1: empty, or a lone ones-column entry
	sosEntry        // 1×1 data minor m[r0][c0]
	sosData2        // 2×2 data minor on rows r0,r1 and cols c0,c1
	sosHom2         // [[m[r0][c0], 1], [m[r1][c0], 1]] = m[r0][c0] - m[r1][c0]
	sosHom3         // rows r0..r2 on cols c0, c1 and the ones column
)

// sosPlans3/sosPlans4 are the static plan tables for n = 3 and n = 4,
// indexed by replace+1 and the rank code of the ids (2 bits per row,
// see rankCode3/rankCode4). Only codes of rank permutations are filled.
var (
	sosPlans3 [4][64][]sosPlan
	sosPlans4 [5][256][]sosPlan
)

func init() {
	buildPlans(3, func(replace, code int, plans []sosPlan) { sosPlans3[replace+1][code] = plans })
	buildPlans(4, func(replace, code int, plans []sosPlan) { sosPlans4[replace+1][code] = plans })
}

// buildPlans compiles the plan list of every (replace, rank order) key of
// order n and hands it to set. A key's perturbation indices are
// ranks[r]*(n-1)+c, so its ε-order is the order perturbationSubsets
// gives the identity rank order (origin row ranks[replace]) with each
// row k relabeled to the row of rank k: the generic SoSSign order by
// construction, enumerated once per origin row instead of once per key.
// Plans whose minor is identically zero are dropped (see compilePlan),
// and a list ends at its first constant plan, which is never zero: that
// skips only steps that cannot decide, so the first nonzero step — the
// result — is the same.
func buildPlans(n int, set func(replace, code int, plans []sosPlan)) {
	ident := make([]int, n)
	for k := range ident {
		ident[k] = k
	}
	byOrigin := make([][]matching, n+1) // indexed by the origin's rank + 1
	for o := -1; o < n; o++ {
		pert := make([][]int, n)
		for k := range pert {
			pert[k] = make([]int, n)
			for c := range pert[k] {
				pert[k][c] = -1
				if k != o && c < n-1 {
					pert[k][c] = k*(n-1) + c
				}
			}
		}
		byOrigin[o+1] = perturbationSubsets(pert)
	}
	pos := make([]matchPos, 0, n)
	forEachRankOrder(n, func(ranks []int) {
		var row [4]int // row[k] is the matrix row of rank k
		for r, k := range ranks {
			row[k] = r
		}
		for replace := -1; replace < n; replace++ {
			o := -1
			if replace >= 0 {
				o = ranks[replace]
			}
			var plans []sosPlan
			for _, s := range byOrigin[o+1] {
				pos = pos[:0]
				for _, q := range s.positions {
					pos = append(pos, matchPos{row[q.r], q.c})
				}
				p, ok := compilePlan(n, replace, pos)
				if !ok {
					continue
				}
				plans = append(plans, p)
				if p.kind == sosOne {
					break
				}
			}
			set(replace, rankCodeOf(ranks), plans)
		}
	})
}

// forEachRankOrder calls fn with every permutation of 0..n-1.
func forEachRankOrder(n int, fn func(ranks []int)) {
	ranks := make([]int, n)
	used := make([]bool, n)
	var rec func(r int)
	rec = func(r int) {
		if r == n {
			fn(ranks)
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				ranks[r] = v
				rec(r + 1)
				used[v] = false
			}
		}
	}
	rec(0)
}

// rankCodeOf packs a rank vector 2 bits per row, row 0 most significant.
func rankCodeOf(ranks []int) int {
	code := 0
	for _, r := range ranks {
		code = code<<2 | r
	}
	return code
}

// compilePlan turns one matching into a signed minor, or reports that
// its minor is identically zero.
//
// With σ the bijection rows→columns that sends each perturbed row to its
// matched column and the a-th kept row to the a-th kept column, every
// nonzero Leibniz term of the work matrix is sgn(σ)·(a term of the kept
// minor), so det(work) = sgn(σ)·det(minor). A matching that uses one
// column twice puts two equal unit rows in the work matrix: zero.
//
// The ones column n-1 is never perturbed, so it is always kept. The
// origin row (0, …, 0, 1), when kept, is zero outside it; expanding
// along the origin row leaves ±1 times the minor without both, a data
// minor. Otherwise the minor is homogeneous: its kept rows over the kept
// data columns and the ones column.
func compilePlan(n, replace int, pos []matchPos) (sosPlan, bool) {
	var sigma [4]int
	var rowUsed, colUsed [4]bool
	for _, q := range pos {
		if colUsed[q.c] {
			return sosPlan{}, false
		}
		rowUsed[q.r], colUsed[q.c] = true, true
		sigma[q.r] = q.c
	}
	var rows, cols []int
	for c := 0; c < n; c++ {
		if !colUsed[c] {
			cols = append(cols, c)
		}
	}
	for r := 0; r < n; r++ {
		if !rowUsed[r] {
			sigma[r] = cols[len(rows)]
			rows = append(rows, r)
		}
	}
	p := sosPlan{sign: 1}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sigma[i] > sigma[j] {
				p.sign = -p.sign
			}
		}
	}
	cols = cols[:len(cols)-1] // the ones column, last of the kept
	data := false
	for a, r := range rows {
		if r == replace {
			// Cofactor of the origin row's 1 at (a, len(cols)).
			if (a+len(cols))%2 == 1 {
				p.sign = -p.sign
			}
			rows = append(rows[:a], rows[a+1:]...)
			data = true
			break
		}
	}
	switch {
	case len(rows) == 0, !data && len(rows) == 1:
		p.kind = sosOne
	case data && len(rows) == 1:
		p.kind = sosEntry
	case data:
		p.kind = sosData2
	case len(rows) == 2:
		p.kind = sosHom2
	default:
		p.kind = sosHom3
	}
	for i := range rows {
		p.rows[i] = uint8(rows[i])
	}
	for i := range cols {
		p.cols[i] = uint8(cols[i])
	}
	return p, true
}

// rankCode3 returns the table code of the rank order of three ids. Equal
// ids (outside the contract: SoS needs distinct identities) rank by
// position, so the code is always a permutation's.
func rankCode3(ids *[3]int) int {
	var r [3]int
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if ids[j] < ids[i] {
				r[i]++
			} else {
				r[j]++
			}
		}
	}
	return r[0]<<4 | r[1]<<2 | r[2]
}

// rankCode4 is rankCode3 for four ids.
func rankCode4(ids *[4]int) int {
	var r [4]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if ids[j] < ids[i] {
				r[i]++
			} else {
				r[j]++
			}
		}
	}
	return r[0]<<6 | r[1]<<4 | r[2]<<2 | r[3]
}

// DetN returns the exact determinant of an n×n int64 matrix, n <= 4,
// using 128-bit accumulation (entries must obey the fixed-point magnitude
// contract).
func DetN(m [][]int64) Int128 { return detN(m) }

// detSignN returns the exact sign of the determinant of an n×n int64
// matrix, n <= 4, using 128-bit accumulation.
func detSignN(m [][]int64) int {
	return detN(m).Sign()
}

// detN dispatches the generic [][]int64 surface onto the fixed-size
// cofactor evaluators. The copies into value arrays keep the whole
// evaluation allocation-free — the previous variable-size recursion
// through freshly built minors dominated the compressor's allocation
// profile on degenerate data, where every exact-zero determinant walks
// the SoS minor ladder.
func detN(m [][]int64) Int128 {
	switch len(m) {
	case 1:
		return Int128FromInt64(m[0][0])
	case 2:
		return Mul64(m[0][0], m[1][1]).Sub(Mul64(m[0][1], m[1][0]))
	case 3:
		var a [3][3]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return Det3(&a)
	default:
		var a [4][4]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return Det4(&a)
	}
}
