package exact

import (
	"math/rand"
	"testing"
)

// sosKey is one table key of the SoS plan tables: matrix order, origin
// row, and the rank order of the vertex ids.
type sosKey struct {
	n, replace int
	ranks      []int
}

// allSoSKeys lists every reachable (n, replace, rank order) key.
func allSoSKeys() []sosKey {
	var keys []sosKey
	for n := 3; n <= 4; n++ {
		forEachRankOrder(n, func(ranks []int) {
			for replace := -1; replace < n; replace++ {
				keys = append(keys, sosKey{n, replace, append([]int(nil), ranks...)})
			}
		})
	}
	return keys
}

// tableSign evaluates the table path on a slice matrix of order 3 or 4.
func tableSign(m [][]int64, ids []int, replace int) int {
	if len(m) == 3 {
		var a [3][3]int64
		for r := range a {
			copy(a[r][:], m[r])
		}
		return SoSOrient2Sign(&a, &[3]int{ids[0], ids[1], ids[2]}, replace)
	}
	var a [4][4]int64
	for r := range a {
		copy(a[r][:], m[r])
	}
	return SoSOrient3Sign(&a, &[4]int{ids[0], ids[1], ids[2], ids[3]}, replace)
}

// orientSign is what every caller composes: the exact determinant sign,
// and the table path only on an exact zero (its precondition).
func orientSign(m [][]int64, ids []int, replace int) int {
	if s := detSignN(m); s != 0 {
		return s
	}
	return tableSign(m, ids, replace)
}

// orientPert returns SoSSign's perturbation indices for an orientation
// matrix with vertex ids and origin row replace.
func orientPert(n int, ids []int, replace int) [][]int {
	pert := make([][]int, n)
	for r := range pert {
		pert[r] = make([]int, n)
		for c := range pert[r] {
			pert[r][c] = -1
			if r != replace && c < n-1 {
				pert[r][c] = ids[r]*(n-1) + c
			}
		}
	}
	return pert
}

// idsForRanks draws distinct ids whose rank order is ranks.
func idsForRanks(rng *rand.Rand, ranks []int) []int {
	vals := make([]int, len(ranks))
	v := rng.Intn(50)
	for i := range vals {
		vals[i] = v
		v += 1 + rng.Intn(1000)
	}
	ids := make([]int, len(ranks))
	for r, k := range ranks {
		ids[r] = vals[k]
	}
	return ids
}

// tieMatrix draws a tie-heavy orientation matrix: data entries in
// {-2..2} with a ones column and the origin (0, …, 0, 1) in row replace,
// shaped by kind — 0 plain random, 1 a duplicated row, 2 data rows equal
// to the origin row, 3 fully zero data.
func tieMatrix(rng *rand.Rand, n, replace, kind int) [][]int64 {
	m := make([][]int64, n)
	for r := range m {
		m[r] = make([]int64, n)
		m[r][n-1] = 1
		if r == replace || kind == 3 {
			continue
		}
		for c := 0; c < n-1; c++ {
			m[r][c] = rng.Int63n(5) - 2
		}
	}
	switch kind {
	case 1:
		// The origin row stays the origin (the table path's contract).
		a, b := rng.Intn(n), rng.Intn(n)
		if b != replace {
			copy(m[b], m[a])
		}
	case 2:
		for r := range m {
			if rng.Intn(2) == 0 {
				for c := 0; c < n-1; c++ {
					m[r][c] = 0
				}
			}
		}
	}
	return m
}

// TestSoSTableMatchesReference is the differential test of the static
// plan tables: over every (n, replace, rank order) key, on tie-heavy
// random matrices with an exactly zero determinant, the table path must
// return SoSSign's sign.
func TestSoSTableMatchesReference(t *testing.T) {
	const ties = 100_000
	rng := rand.New(rand.NewSource(90))
	keys := allSoSKeys()
	perKind := [4]int{}
	for got, draw := 0, 0; got < ties; draw++ {
		key := keys[draw%len(keys)]
		kind := (draw / len(keys)) % 4
		m := tieMatrix(rng, key.n, key.replace, kind)
		if detSignN(m) != 0 {
			continue
		}
		got++
		perKind[kind]++
		ids := idsForRanks(rng, key.ranks)
		want := SoSSign(m, orientPert(key.n, ids, key.replace))
		if s := tableSign(m, ids, key.replace); s != want {
			t.Fatalf("table path %d, reference %d (m=%v ids=%v replace=%d)", s, want, m, ids, key.replace)
		}
	}
	for kind, c := range perKind {
		if c == 0 {
			t.Errorf("no ties drawn of kind %d", kind)
		}
	}
}

// TestSoSTableCoverage checks that every reachable table key has a
// nonempty plan list ending in a constant (never zero) plan, and that
// every plan is a well-formed minor: rows and data columns in range, the
// origin row expanded away, the ones column implicit, and 3×3-shaped
// kinds only for n = 4.
func TestSoSTableCoverage(t *testing.T) {
	// Rows and data columns each kind reads.
	shape := map[uint8][2]int{sosOne: {0, 0}, sosEntry: {1, 1}, sosData2: {2, 2}, sosHom2: {2, 1}, sosHom3: {3, 2}}
	for _, key := range allSoSKeys() {
		var plans []sosPlan
		if key.n == 3 {
			plans = sosPlans3[key.replace+1][rankCodeOf(key.ranks)]
		} else {
			plans = sosPlans4[key.replace+1][rankCodeOf(key.ranks)]
		}
		if len(plans) == 0 {
			t.Fatalf("empty plan list for n=%d replace=%d ranks=%v", key.n, key.replace, key.ranks)
		}
		if last := plans[len(plans)-1]; last.kind != sosOne {
			t.Fatalf("n=%d replace=%d ranks=%v: list ends in kind %d, not a constant plan", key.n, key.replace, key.ranks, last.kind)
		}
		for _, p := range plans {
			sh, ok := shape[p.kind]
			if !ok || (key.n == 3 && (p.kind == sosData2 || p.kind == sosHom3)) {
				t.Fatalf("n=%d: plan kind %d", key.n, p.kind)
			}
			for i := 0; i < sh[0]; i++ {
				if int(p.rows[i]) >= key.n || int(p.rows[i]) == key.replace {
					t.Fatalf("plan row %d out of range or the origin row %d: %+v", p.rows[i], key.replace, p)
				}
			}
			for i := 0; i < sh[1]; i++ {
				if int(p.cols[i]) >= key.n-1 {
					t.Fatalf("plan column %d is not a data column: %+v", p.cols[i], p)
				}
			}
		}
	}
	// The rank codes of the ids land exactly on the filled keys.
	ids3 := [3]int{30, 10, 20}
	if got, want := rankCode3(&ids3), rankCodeOf([]int{2, 0, 1}); got != want {
		t.Errorf("rankCode3 = %d, want %d", got, want)
	}
	ids4 := [4]int{7, 99, 3, 42}
	if got, want := rankCode4(&ids4), rankCodeOf([]int{1, 3, 0, 2}); got != want {
		t.Errorf("rankCode4 = %d, want %d", got, want)
	}
}

// TestSoSOrientSignMatchesGeneric cross-validates the orientation path
// (exact sign, table SoS on a zero) against the generic SoSSign on
// random, frequently degenerate inputs with random ids: the
// rank-surrogate index trick must never change the decision.
func TestSoSOrientSignMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 4000; trial++ {
		n := 3 + rng.Intn(2) // 3 or 4
		ids := rng.Perm(1000)[:n]
		replace := rng.Intn(n+1) - 1 // -1..n-1
		m := tieMatrix(rng, n, replace, 0)
		want := SoSSign(m, orientPert(n, ids, replace))
		if got := orientSign(m, ids, replace); got != want {
			t.Fatalf("fast path disagrees: got %d want %d (m=%v ids=%v replace=%d)",
				got, want, m, ids, replace)
		}
	}
}

// TestSoSOrientSignSharedCellConsistency rebuilds the detection-consistency
// argument at the predicate level: evaluating the same degenerate simplex
// with rows in a different order (and the matching ids) must flip the sign
// with the permutation parity, exactly as a real determinant would.
func TestSoSOrientSignSharedCellConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 2000; trial++ {
		ids := rng.Perm(100)[:3]
		m := make([][]int64, 3)
		for r := range m {
			m[r] = []int64{rng.Int63n(3) - 1, rng.Int63n(3) - 1, 1}
		}
		s := orientSign(m, ids, -1)
		// Swap rows 0 and 1.
		m2 := [][]int64{m[1], m[0], m[2]}
		ids2 := []int{ids[1], ids[0], ids[2]}
		s2 := orientSign(m2, ids2, -1)
		if s2 != -s {
			t.Fatalf("row swap did not flip sign: %d then %d (m=%v ids=%v)", s, s2, m, ids)
		}
	}
}

// TestSoSOrientSignCacheStability hammers one degenerate configuration
// to confirm repeated table lookups return identical, nonzero answers.
func TestSoSOrientSignCacheStability(t *testing.T) {
	m := [3][3]int64{{1, 2, 1}, {2, 4, 1}, {3, 6, 1}}
	ids := [3]int{42, 7, 99}
	want := SoSOrient2Sign(&m, &ids, -1)
	if want == 0 {
		t.Fatal("collinear triangle left unresolved")
	}
	for i := 0; i < 100; i++ {
		if got := SoSOrient2Sign(&m, &ids, -1); got != want {
			t.Fatalf("table instability at %d", i)
		}
	}
}

func BenchmarkSoSOrientSignDegenerate(b *testing.B) {
	m := [3][3]int64{{1, 2, 1}, {2, 4, 1}, {3, 6, 1}}
	ids := [3]int{5, 17, 23}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SoSOrient2Sign(&m, &ids, -1)
	}
}

func BenchmarkSoSOrient3SignDegenerate(b *testing.B) {
	m := [4][4]int64{{5, 5, 5, 1}, {5, 5, 5, 1}, {1, 2, 3, 1}, {9, 8, 7, 1}}
	ids := [4]int{5, 17, 23, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SoSOrient3Sign(&m, &ids, -1)
	}
}
