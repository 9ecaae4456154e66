package av

import (
	"strings"
	"sync"
	"testing"

	"dqo/internal/exec"
	"dqo/internal/hashtable"
	"dqo/internal/storage"
)

func offerOf(t *testing.T, bytes int64) exec.TableOffer {
	t.Helper()
	m, err := hashtable.BuildMulti(hashtable.Murmur3Fin, []uint32{3, 1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return exec.TableOffer{Hash: hashtable.Murmur3Fin, Bytes: bytes, Index: m}
}

// TestOfferPolicy walks the adoption policy: the first offer of a table is
// noted, the second adopted while the adopted views stay within the budget and
// declined otherwise — once, after which it is not wanted until the views or
// the budget change —, nothing is evicted, an existing view of the kind makes
// later offers moot, explicit views neither count against the budget nor lose
// their place, and every change of the views forgets what was noted.
func TestOfferPolicy(t *testing.T) {
	c := NewCatalog()
	c.SetBudget(1000)
	counts := func(wantAdopted, wantDeclined, wantBytes int64) {
		t.Helper()
		if adopted, declined, bytes := c.Adoption(); adopted != wantAdopted || declined != wantDeclined || bytes != wantBytes {
			t.Fatalf("Adoption() = %d, %d, %d; want %d, %d, %d", adopted, declined, bytes, wantAdopted, wantDeclined, wantBytes)
		}
	}
	a := offerOf(t, 600)
	if v := c.Offer("S", "R_ID", a); v != nil {
		t.Fatalf("first offer adopted as %s", v.Label())
	}
	v := c.Offer("S", "R_ID", a)
	if v == nil || !v.Adopted || v.Label() != "av:hashidx(S.R_ID)" || v.SizeBytes != 600 {
		t.Fatalf("second offer: %+v, want adopted as av:hashidx(S.R_ID)", v)
	}
	if idx, ok := c.Index("S", "R_ID"); !ok || idx.SPH() || idx.Hash() != hashtable.Murmur3Fin {
		t.Fatal("the adopted view is not served as a hash index")
	}
	// A table the catalog holds: moot, however often it is offered.
	for i := 0; i < 2; i++ {
		if v := c.Offer("S", "R_ID", a); v != nil {
			t.Fatal("offer of a table the catalog holds was adopted again")
		}
	}
	counts(1, 0, 600)

	if c.Wants("S", "R_ID", a) {
		t.Fatal("a table the catalog holds is still wanted")
	}

	// 600 held + 500 > 1000: noted, then declined, and from then on neither
	// wanted nor counted again; the adopted view stays.
	b := offerOf(t, 500)
	for i, wantDeclined := range []int64{0, 1, 1, 1} {
		if wanted := c.Wants("T", "K", b); wanted != (i < 2) {
			t.Fatalf("offer %d over budget: Wants = %v", i, wanted)
		}
		if v := c.Offer("T", "K", b); v != nil {
			t.Fatalf("offer %d over budget was adopted", i)
		}
		counts(1, wantDeclined, 600)
	}
	// A smaller table still fits beside it.
	small := offerOf(t, 400)
	c.Offer("U", "K", small)
	if v := c.Offer("U", "K", small); v == nil {
		t.Fatal("an offer that fits was not adopted")
	}

	// Explicit views are outside the budget, and a change of the views
	// forgets the notes: b, noted above, starts over.
	rel := storage.MustNewRelation("big", storage.NewUint32("k", make([]uint32, 1000)))
	explicit, err := MaterializeHashIndex("big", rel, "k", hashtable.Murmur3Fin)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(explicit)
	counts(2, 1, 1000)
	if !c.Wants("T", "K", b) {
		t.Fatal("a declined table is not wanted again after the views changed")
	}
	c.Offer("T", "K", b)
	if v := c.Offer("T", "K", b); v != nil || c.Wants("T", "K", b) {
		t.Fatal("an offer noted before the views changed was adopted, or is wanted after its second decline")
	}
	counts(2, 2, 1000)
	// A raised budget reopens what was declined; a table declined once has
	// been seen twice, but what was noted of it went with the decline.
	c.SetBudget(2000)
	if !c.Wants("T", "K", b) {
		t.Fatal("a declined table is not wanted again under a raised budget")
	}
	c.Offer("T", "K", b)
	if v := c.Offer("T", "K", b); v == nil {
		t.Fatal("an offer within the raised budget was not adopted")
	}
	counts(3, 2, 1500)
	// An SPH directory on a column with a hash index is another view.
	sph := exec.TableOffer{SPH: true, Bytes: 100, Index: a.Index}
	c.Offer("S", "R_ID", sph)
	if v := c.Offer("S", "R_ID", sph); v == nil || v.Label() != "av:sph(S.R_ID)" {
		t.Fatalf("SPH offer beside a hash index: %+v", v)
	}
	c.Drop(SPHDirectory, "S", "R_ID")

	desc := c.String()
	for _, want := range []string{"av:hashidx(S.R_ID)", "adopted from a join", "av:hashidx(big.k)", "explicit, built in", "builds_saved=0"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("String() misses %q:\n%s", want, desc)
		}
	}

	// Dropping a table's views frees their bytes; Clear drops the rest, the
	// lifetime counters stay.
	if n := c.DropTable("S"); n != 1 {
		t.Fatalf("DropTable(S) dropped %d views", n)
	}
	counts(4, 2, 900)
	c.Clear()
	if len(c.Views()) != 0 {
		t.Fatalf("%d views after Clear", len(c.Views()))
	}
	counts(4, 2, 0)

	// Budget zero: adoption is off.
	c.SetBudget(0)
	if c.Adopting() {
		t.Fatal("Adopting() with a zero budget")
	}
	for i := 0; i < 3; i++ {
		if v := c.Offer("S", "R_ID", a); v != nil {
			t.Fatal("offer adopted with a zero budget")
		}
	}
	counts(4, 2, 0)
}

// TestOfferConcurrent: many goroutines offering one table end with one view.
func TestOfferConcurrent(t *testing.T) {
	c := NewCatalog()
	o := offerOf(t, 100)
	var wg sync.WaitGroup
	adopted := make([]int, 8)
	for g := range adopted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v := c.Offer("S", "R_ID", o); v != nil {
					adopted[g]++
				}
				c.Index("S", "R_ID")
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range adopted {
		total += n
	}
	if a, _, _ := c.Adoption(); total != 1 || a != 1 || len(c.Views()) != 1 {
		t.Fatalf("%d adoptions seen, %d counted, %d views; want 1 of each", total, a, len(c.Views()))
	}
}
