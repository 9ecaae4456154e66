package exec

import (
	"dqo/internal/hashtable"
	"dqo/internal/physical"
)

// TableOffer describes a join table a query has built and is done probing:
// what a database that sees the same build coming again may want to keep as a
// materialised Algorithmic View instead of letting the next execution build
// it once more. Table and Column say where to look, Keys is how the taker
// tells what the table indexes: the key column it was built over, whole and in
// place — a filtered, decoded or re-ordered input is a copy and is no column
// of a registered table.
type TableOffer struct {
	Table  string            // the scanned table as the plan names it (its alias)
	Column string            // the build key as the plan names it ("alias.column")
	Keys   []uint32          // the key column the table was built over
	Index  physical.RowIndex // a *hashtable.Multi, or with SPH a *hashtable.SPH
	SPH    bool
	Hash   hashtable.Func // the function a Multi hashes with
	Bytes  int64          // the table's heap footprint
}

// TableTaker receives a query's offers and reports whether it took the table.
// A taken table belongs to the taker: the query neither writes it nor hands
// its arrays back to a scratch pool. Joins of one query may offer from
// different goroutines.
type TableTaker interface {
	OfferTable(TableOffer) (taken bool)
}
