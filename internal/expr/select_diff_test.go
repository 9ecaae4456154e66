package expr

import (
	"math"
	"slices"
	"testing"

	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// holdsAt is the per-row reference of the comparison kernels: row i of col
// against lit, widened the way the interpreter widens (an integer column as
// int64, so a uint64 above MaxInt64 reads negative; as float64 against a
// float literal) and decided by holds.
func holdsAt(col *storage.Column, i int32, op Op, lit Expr) bool {
	if s, ok := lit.(StrLit); ok {
		return holds(op, col.Dict().Lookup(col.Uint32s()[i]), s.V)
	}
	if col.Kind() == storage.KindFloat64 {
		v := col.Float64s()[i]
		if l, ok := lit.(IntLit); ok {
			return holds(op, v, float64(l.V))
		}
		return holds(op, v, lit.(FloatLit).V)
	}
	var v int64
	switch col.Kind() {
	case storage.KindUint32:
		v = int64(col.Uint32s()[i])
	case storage.KindUint64:
		v = int64(col.Uint64s()[i])
	default:
		v = col.Int64s()[i]
	}
	if l, ok := lit.(IntLit); ok {
		return holds(op, v, l.V)
	}
	return holds(op, float64(v), lit.(FloatLit).V)
}

var selKinds = []storage.Kind{storage.KindUint32, storage.KindUint64, storage.KindInt64, storage.KindFloat64, storage.KindString}

var selWords = []string{"pear", "apple", "fig", "zebra", "kiwi", "Apple", "pear2", "a"}

// selValue draws one value of kind as an int64 (integers), a float64 or a
// string. A special value sits at an edge of its type: uint32s near
// MaxUint32, uint64s around and above MaxInt64, int64s near both ends, and
// float64s that are NaN, ±0 or ±Inf.
func selValue(r *xrand.Rand, kind storage.Kind, special bool) any {
	small := r.Uint64n(64)
	switch kind {
	case storage.KindUint32:
		if special {
			return uint32(math.MaxUint32 - small%4)
		}
		return uint32(small)
	case storage.KindUint64:
		if special {
			return []uint64{math.MaxInt64 - 1 + small%4, math.MaxUint64 - small%4}[small%2]
		}
		return small
	case storage.KindInt64:
		if special {
			return []int64{math.MinInt64 + int64(small%4), math.MaxInt64 - int64(small%4)}[small%2]
		}
		return int64(small) - 32
	case storage.KindFloat64:
		if special {
			return []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}[small%5]
		}
		return float64(int64(small)-32) / 2
	default:
		return selWords[small%uint64(len(selWords))]
	}
}

// selColumn draws n rows of kind. shape 0 is one plain value in every row,
// shape 1 that value in row 0 and about half the others and random ones
// elsewhere, shape 2 random rows after row 0; about one random row in eight
// is special (selValue).
func selColumn(r *xrand.Rand, kind storage.Kind, n, shape int) *storage.Column {
	x := selValue(r, kind, false)
	vals := make([]any, n)
	for i := range vals {
		switch {
		case i == 0 || shape == 0 || shape == 1 && r.Uint64n(2) == 0:
			vals[i] = x
		default:
			vals[i] = selValue(r, kind, r.Uint64n(8) == 0)
		}
	}
	switch kind {
	case storage.KindUint32:
		return storage.NewUint32("c", typed[uint32](vals))
	case storage.KindUint64:
		return storage.NewUint64("c", typed[uint64](vals))
	case storage.KindInt64:
		return storage.NewInt64("c", typed[int64](vals))
	case storage.KindFloat64:
		return storage.NewFloat64("c", typed[float64](vals))
	default:
		return storage.NewString("c", typed[string](vals))
	}
}

func typed[T any](vals []any) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out
}

// selLiterals are the literals a column of kind is compared against: the
// type's edges, the middle of the plain values' range, and the values of row
// 0 and two random rows (so that equality hits) as both an integer and a
// float literal. A string column also meets words its dictionary never saw.
func selLiterals(r *xrand.Rand, col *storage.Column) []Expr {
	var lits []Expr
	if col.Kind() == storage.KindString {
		lits = []Expr{StrLit{"never-seen"}, StrLit{"a"}, StrLit{"zzz"}, StrLit{""}}
		for k := range 3 {
			i := int32(r.Uint64n(uint64(col.Len()))) * int32(min(k, 1))
			lits = append(lits, StrLit{col.Dict().Lookup(col.Uint32s()[i])})
		}
		return lits
	}
	lits = []Expr{
		IntLit{math.MinInt64}, IntLit{-1}, IntLit{0}, IntLit{32}, IntLit{math.MaxUint32}, IntLit{math.MaxInt64},
		FloatLit{math.Inf(-1)}, FloatLit{math.Copysign(0, -1)}, FloatLit{0.5}, FloatLit{1e19},
		FloatLit{math.Inf(1)}, FloatLit{math.NaN()},
	}
	for k := range 3 {
		i := int32(r.Uint64n(uint64(col.Len()))) * int32(min(k, 1))
		switch col.Kind() {
		case storage.KindFloat64:
			v := col.Float64s()[i]
			lits = append(lits, FloatLit{v}, IntLit{int64(v)})
		case storage.KindUint32:
			v := int64(col.Uint32s()[i])
			lits = append(lits, IntLit{v}, FloatLit{float64(v)})
		case storage.KindUint64:
			v := int64(col.Uint64s()[i])
			lits = append(lits, IntLit{v}, FloatLit{float64(v)})
		default:
			v := col.Int64s()[i]
			lits = append(lits, IntLit{v}, FloatLit{float64(v)})
		}
	}
	return lits
}

// checkSelection runs the kernel on col <op> lit, over every row and over
// cand, against holdsAt. It returns how many rows each path selected.
func checkSelection(t *testing.T, col *storage.Column, op Op, lit Expr, cand []int32) (full, picked int) {
	t.Helper()
	rel := storage.MustNewRelation("t", col)
	all := make([]int32, col.Len())
	for i := range all {
		all[i] = int32(i)
	}
	for _, path := range []struct {
		name string
		rows []int32
		all  bool
	}{{"full", all, true}, {"cand", cand, false}} {
		var want []int32
		for _, i := range path.rows {
			if holdsAt(col, i, op, lit) {
				want = append(want, i)
			}
		}
		got, err := compareColumn(rel, "c", op, lit, path.rows, path.all)
		if err != nil {
			t.Fatalf("%s c %s %s (%s): %v", col.Kind(), op, lit, path.name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s c %s %s (%s): kernel selects %d rows %v, per-row reference %d %v",
				col.Kind(), op, lit, path.name, len(got), head(got), len(want), head(want))
		}
		if path.all {
			full = len(got)
		} else {
			picked = len(got)
		}
		storage.PutInt32s(got)
	}
	return full, picked
}

func head(xs []int32) []int32 { return xs[:min(len(xs), 12)] }

// randomCand is an ascending subset of [0, n) holding each row with
// probability 1/2.
func randomCand(r *xrand.Rand, n int) []int32 {
	var cand []int32
	for i := 0; i < n; i++ {
		if r.Uint64n(2) == 0 {
			cand = append(cand, int32(i))
		}
	}
	return cand
}

// TestSelectionMatchesPerRowReference is the differential of the branch-free
// selection loops: every column kind, every operator, the full scan and the
// candidate path, against the per-row reference. Each (kind, operator, path)
// must meet a literal that selects no row, one that selects all of them and
// one that selects between a quarter and three quarters, so the cursor is
// checked where it never moves, always moves and moves at random.
func TestSelectionMatchesPerRowReference(t *testing.T) {
	r := xrand.New(38)
	const n = 1000
	type cell struct {
		kind storage.Kind
		op   Op
		path string
	}
	const none, mid, every = 1, 2, 4
	seen := map[cell]int{}
	bucket := func(got, of int) int {
		switch {
		case got == 0:
			return none
		case got == of:
			return every
		case 4*got >= of && 4*got <= 3*of:
			return mid
		}
		return 0
	}
	for _, kind := range selKinds {
		for shape := 0; shape < 3; shape++ {
			col := selColumn(r, kind, n, shape)
			cand := randomCand(r, n)
			for _, lit := range selLiterals(r, col) {
				for _, op := range comparisons {
					full, picked := checkSelection(t, col, op, lit, cand)
					seen[cell{kind, op, "full"}] |= bucket(full, n)
					seen[cell{kind, op, "cand"}] |= bucket(picked, len(cand))
				}
			}
		}
	}
	for _, kind := range selKinds {
		for _, op := range comparisons {
			for _, path := range []string{"full", "cand"} {
				if got := seen[cell{kind, op, path}]; got != none|mid|every {
					t.Errorf("%s %s %s: selectivities met %03b, want 0 %%, ~50 %% and 100 %% (111)", kind, op, path, got)
				}
			}
		}
	}
}

// FuzzSelectivity mutates the column's seed, kind, shape and length, the
// operator, and the literal (a row's value, or raw bits read as an integer or
// a float), and checks both kernel paths against the per-row reference.
func FuzzSelectivity(f *testing.F) {
	for i, kind := range selKinds {
		f.Add(uint64(i), uint8(kind), uint8(i), uint8(i%3), uint16(100+i), uint64(i), uint8(0))
		f.Add(uint64(i+7), uint8(kind), uint8(i+3), uint8(2), uint16(3), math.Float64bits(math.NaN()), uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kindSel, opSel, shape uint8, n uint16, bits uint64, litSel uint8) {
		r := xrand.New(seed)
		kind := selKinds[int(kindSel)%len(selKinds)]
		col := selColumn(r, kind, int(n%2048)+1, int(shape%3))
		lits := selLiterals(r, col)
		lit := lits[int(litSel)%len(lits)]
		if kind != storage.KindString {
			switch litSel % 4 {
			case 1:
				lit = IntLit{int64(bits)}
			case 2:
				lit = FloatLit{math.Float64frombits(bits)}
			}
		}
		op := comparisons[int(opSel)%len(comparisons)]
		checkSelection(t, col, op, lit, randomCand(r, col.Len()))
	})
}
