package naive

import (
	"strings"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/storage"
)

// TestStringKeysByValue: two tables interning the same cities in different
// orders join and group on the strings, not on their dictionary codes, and
// the grouped key stays a string column.
func TestStringKeysByValue(t *testing.T) {
	orders := storage.MustNewRelation("o",
		storage.NewString("city", []string{"ber", "par", "ber", "rom"}),
		storage.NewInt64("amount", []int64{10, 20, 30, 40}))
	cities := storage.MustNewRelation("c",
		storage.NewString("name", []string{"rom", "par", "ber"}),
		storage.NewUint32("pop", []uint32{3, 2, 4}))
	q := &logical.Sort{Key: "city", Input: &logical.GroupBy{
		Key:  "city",
		Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}, {Func: expr.AggMax, Col: "pop"}, {Func: expr.AggCount}},
		Input: &logical.Join{
			Left: &logical.Scan{Table: "o", Rel: orders}, Right: &logical.Scan{Table: "c", Rel: cities},
			LeftKey: "city", RightKey: "name",
		},
	}}
	got, err := Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if k := got.MustColumn("city").Kind(); k != storage.KindString {
		t.Fatalf("group key kind %s, want string", k)
	}
	if rows := strings.Join(Rows(got), " "); rows != "ber|40|4|2 par|20|2|1 rom|40|3|1" {
		t.Fatalf("rows %s", rows)
	}
}

// TestCheck: a LIMIT without ORDER BY accepts any sub-multiset of the right
// size; an ordered query must follow the oracle's key sequence.
func TestCheck(t *testing.T) {
	rel := func(ks ...uint32) *storage.Relation {
		return storage.MustNewRelation("r", storage.NewUint32("k", ks))
	}
	want := rel(1, 2, 2, 3)
	for _, c := range []struct {
		got     *storage.Relation
		sortKey string
		limit   int
		ok      bool
	}{
		{rel(3, 2, 1, 2), "", -1, true},
		{rel(3, 2, 1), "", -1, false},
		{rel(2, 2), "", 2, true},
		{rel(2, 4), "", 2, false},
		{rel(2), "", 2, false},
		{rel(1, 2, 2, 3), "k", -1, true},
		{rel(2, 1, 2, 3), "k", -1, false},
		{rel(1, 2), "k", 2, true},
		{rel(2, 2), "k", 2, false},
	} {
		if err := Check(c.got, want, c.sortKey, c.limit); (err == nil) != c.ok {
			t.Errorf("Check(%v, sort %q, limit %d) = %v, want ok=%v", Rows(c.got), c.sortKey, c.limit, err, c.ok)
		}
	}
}
