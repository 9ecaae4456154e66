package av

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/hashtable"
)

// Catalog holds the materialised Algorithmic Views and plugs them into the
// optimiser: it implements both core.ScanProvider (sorted projections as
// alternative access paths) and core.IndexProvider (prebuilt join indexes).
//
// Views get in two ways. Explicit ones are added by name (Add) and stay until
// dropped. Adopted ones are join tables that queries built over a whole base
// column and offered (Offer): the answer to "materialise when" is "after the
// second identical build, while it fits" — the second offer of a table since
// the catalog last changed is kept if the adopted views then stay within the
// byte budget, and declined otherwise. Nothing is evicted to make room: an
// eviction would move the plans of every statement using the evicted view,
// and two tables taking turns in one slot would re-plan on every execution.
type Catalog struct {
	mu    sync.RWMutex
	views []*View
	seen  map[offerKey]offerState // offers met since the views last changed

	// budget is the bytes of adopted views allowed. Every query asks whether
	// it is positive (Adopting), so it is read without the lock.
	budget atomic.Int64

	adopted  atomic.Int64 // offers kept, over the catalog's lifetime
	declined atomic.Int64 // tables that did not fit the budget
}

// DefaultBudget is the byte budget of adopted views a new catalog starts
// with.
const DefaultBudget = 64 << 20

// NewCatalog returns an empty catalog with the default adoption budget.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.budget.Store(DefaultBudget)
	return c
}

// Add registers a view. Adding a second view with the same kind, table, and
// column replaces the first.
func (c *Catalog) Add(v *View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen = nil
	for i, old := range c.views {
		if old.Kind == v.Kind && old.Table == v.Table && old.Column == v.Column {
			c.views[i] = v
			return
		}
	}
	c.views = append(c.views, v)
}

// DropTable removes every view materialised from the given table (used
// when the table's data is replaced — the views would be stale). It returns
// the number of views dropped.
func (c *Catalog) DropTable(table string) int {
	return c.drop(func(v *View) bool { return v.Table == table })
}

// Drop removes the view with the given kind, table, and column. It reports
// whether a view was removed.
func (c *Catalog) Drop(kind StructureKind, table, column string) bool {
	return c.drop(func(v *View) bool { return v.Kind == kind && v.Table == table && v.Column == column }) > 0
}

// Clear removes every view, explicit and adopted. The budget and the
// lifetime counters stay.
func (c *Catalog) Clear() { c.drop(func(*View) bool { return true }) }

// drop removes the views gone matches and forgets the offers seen so far.
func (c *Catalog) drop(gone func(*View) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen = nil
	before := len(c.views)
	c.views = slices.DeleteFunc(c.views, gone)
	return before - len(c.views)
}

// SetBudget sets how many bytes of adopted views the catalog may hold; zero
// (or less) turns adoption off. Views already adopted stay, whatever the new
// budget: it bounds what is taken, it does not evict. Tables declined under
// the old budget may be offered again.
func (c *Catalog) SetBudget(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget.Store(bytes)
	maps.DeleteFunc(c.seen, func(_ offerKey, s offerState) bool { return s == offerDeclined })
}

// Adopting reports whether offers can be adopted at all (a positive budget).
func (c *Catalog) Adopting() bool { return c.budget.Load() > 0 }

type offerKey struct {
	kind          StructureKind
	table, column string
	hash          hashtable.Func
}

// offerState is what the catalog remembers of a table it has been offered
// and does not hold.
type offerState uint8

const (
	offerNoted    offerState = iota + 1 // built once; adopt it if it comes again
	offerDeclined                       // came again and did not fit the budget
)

func keyOf(table, column string, o exec.TableOffer) offerKey {
	kind := HashIndex
	if o.SPH {
		kind = SPHDirectory
	}
	return offerKey{kind, table, column, o.Hash}
}

// open reports whether an offer under key can still lead anywhere: adoption
// is on, the table has not been declined, and no view of the kind exists on
// the column (an offer then comes from a query planned before the view did).
// Callers hold c.mu.
func (c *Catalog) open(key offerKey) bool {
	if c.budget.Load() <= 0 || c.seen[key] == offerDeclined {
		return false
	}
	for _, v := range c.views {
		if v.Kind == key.kind && v.Table == key.table && v.Column == key.column {
			return false
		}
	}
	return true
}

// Wants reports whether offering this table is worth the caller's trouble. It
// takes the read lock only, so the executions of a join whose table was
// declined, all of which build it again, do not queue up behind one another.
func (c *Catalog) Wants(table, column string, o exec.TableOffer) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.open(keyOf(table, column, o))
}

// Offer decides whether a join table some query built over the whole of
// table.column becomes a view, and returns the view when it does. The caller
// has checked that the table indexes what table.column holds now. The first
// offer since the views last changed is noted; the next one is adopted, or —
// if the adopted views would outgrow the budget — declined, counted once and
// not wanted again.
func (c *Catalog) Offer(table, column string, o exec.TableOffer) *View {
	key := keyOf(table, column, o)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open(key) {
		return nil
	}
	if c.seen[key] != offerNoted {
		if c.seen == nil {
			c.seen = make(map[offerKey]offerState)
		}
		c.seen[key] = offerNoted
		return nil
	}
	held := int64(0)
	for _, v := range c.views {
		if v.Adopted {
			held += v.SizeBytes
		}
	}
	if held+o.Bytes > c.budget.Load() {
		c.seen[key] = offerDeclined
		c.declined.Add(1)
		return nil
	}
	v := &View{Kind: key.kind, Table: table, Column: column, SizeBytes: o.Bytes,
		Adopted: true, idx: o.Index, hash: o.Hash}
	c.views = append(c.views, v)
	c.seen = nil
	c.adopted.Add(1)
	return v
}

// Adoption reports the lifetime counts of offers adopted and declined, and
// the bytes the adopted views hold now. A table counts as declined once,
// however many executions go on to build it.
func (c *Catalog) Adoption() (adopted, declined, bytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range c.views {
		if v.Adopted {
			bytes += v.SizeBytes
		}
	}
	return c.adopted.Load(), c.declined.Load(), bytes
}

// Views returns a snapshot of the registered views.
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*View(nil), c.views...)
}

// TotalBytes returns the combined footprint of all views.
func (c *Catalog) TotalBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, v := range c.views {
		total += v.SizeBytes
	}
	return total
}

// ScanVariants implements core.ScanProvider.
func (c *Catalog) ScanVariants(table string) []core.ScanVariant {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []core.ScanVariant
	for _, v := range c.views {
		if v.Kind == SortedProjection && v.Table == table {
			out = append(out, core.ScanVariant{Label: v.Label(), Rel: v.rel})
		}
	}
	return out
}

// Index implements core.IndexProvider. SPH directories win over hash
// indexes when both exist (they are strictly cheaper to probe).
func (c *Catalog) Index(table, column string) (core.PrebuiltIndex, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var hash *View
	for _, v := range c.views {
		if v.Table != table || v.Column != column {
			continue
		}
		switch v.Kind {
		case SPHDirectory:
			return v, true
		case HashIndex:
			hash = v
		}
	}
	if hash != nil {
		return hash, true
	}
	return nil, false
}

// String renders the catalog for the avtool CLI and DB.DescribeAVs: per view
// its footprint, whether somebody asked for it (explicit, with the build time
// paid) or a join's table was kept (adopted), and what it has served — the
// keys probed and the builds that did not happen.
func (c *Catalog) String() string {
	views := c.Views()
	if len(views) == 0 {
		return "catalog: (empty)"
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Label() < views[j].Label() })
	var b strings.Builder
	b.WriteString("catalog:\n")
	for _, v := range views {
		origin := fmt.Sprintf("explicit, built in %s", v.BuildTime)
		if v.Adopted {
			origin = "adopted from a join"
		}
		joins, probes := v.Served()
		fmt.Fprintf(&b, "  %-28s %10d bytes  %s  probes=%d builds_saved=%d\n", v.Label(), v.SizeBytes, origin, probes, joins)
	}
	fmt.Fprintf(&b, "  total %d bytes", c.TotalBytes())
	return b.String()
}

var (
	_ core.ScanProvider  = (*Catalog)(nil)
	_ core.IndexProvider = (*Catalog)(nil)
)

// Cracked implements core.RangeProvider: it returns the adaptive index on
// table.column, if materialised.
func (c *Catalog) Cracked(table, column string) (core.RangeIndex, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range c.views {
		if v.Kind == CrackedIndex && v.Table == table && v.Column == column {
			return v, true
		}
	}
	return nil, false
}
