package physical

import (
	"fmt"
	"sync"

	"dqo/internal/hashtable"
	"dqo/internal/props"
)

// This file implements the paper's Figure 2 execution model:
//
//	PartitionBasedGrouping(Producer R, Consumer R', groupingKey):
//	  1. R -> partitionBy(groupingKey) => R_partitions
//	  2. R_partitions => aggregate(...) => R'
//
// partitionBy turns one producer into a *bundle of independent producers*,
// one per group ("If the input produces 42 different groups, partitionBy
// creates 42 different producers"). Each line makes no algorithmic decision
// about how the producer-consumer pattern is implemented physically; the
// concrete partitioning strategy and the aggregation loop (serial/parallel)
// are chosen separately — that choice is exactly where hash-based grouping,
// SPH-based grouping, etc. fall out as special cases.

// Producer yields the row indexes of one partition, in input order.
type Producer struct {
	Key  uint32
	Rows []int32
}

// Bundle is a set of independent producers covering the input exactly once.
type Bundle struct {
	Producers []Producer
	// SortedByKey reports whether the producers are in ascending key order
	// (a property the downstream consumer may exploit or must not assume,
	// mirroring Section 2.1's discussion of hash table output order).
	SortedByKey bool
}

// PartitionStrategy selects the physical implementation of partitionBy.
type PartitionStrategy uint8

// Partitioning strategies.
const (
	// PartitionBySPH scatters rows into a dense array indexed by key;
	// requires a dense domain. Producers come out in ascending key order.
	PartitionBySPH PartitionStrategy = iota
	// PartitionByHash scatters rows into a chained hash table. Producers
	// come out in first-seen key order.
	PartitionByHash
	// PartitionByRuns exploits grouped input: each run of equal keys is one
	// producer. Requires grouped input (equal keys adjacent).
	PartitionByRuns
)

// String returns the strategy name.
func (s PartitionStrategy) String() string {
	switch s {
	case PartitionBySPH:
		return "sph"
	case PartitionByHash:
		return "hash"
	case PartitionByRuns:
		return "runs"
	default:
		return "unknown"
	}
}

// PartitionBy implements line 1 of Figure 2: it splits the input rows into
// one producer per distinct key.
func PartitionBy(keys []uint32, dom props.Domain, strat PartitionStrategy, hash hashtable.Func) (*Bundle, error) {
	switch strat {
	case PartitionBySPH:
		return partitionSPH(keys, dom)
	case PartitionByHash:
		return partitionHash(keys, dom, hash), nil
	case PartitionByRuns:
		return partitionRuns(keys, dom)
	default:
		return nil, fmt.Errorf("physical: unknown partition strategy %d", uint8(strat))
	}
}

func partitionSPH(keys []uint32, dom props.Domain) (*Bundle, error) {
	lo64, hi64, ok := dom.DenseDomain()
	if !ok {
		return nil, fmt.Errorf("physical: sph partitioning requires a dense domain, have %+v", dom)
	}
	width := hi64 - lo64 + 1
	if width > maxSPHWidth {
		return nil, fmt.Errorf("physical: sph partitioning width %d exceeds limit %d", width, maxSPHWidth)
	}
	lo := uint32(lo64)
	slots := make([][]int32, width)
	for i, k := range keys {
		slots[k-lo] = append(slots[k-lo], int32(i))
	}
	b := &Bundle{SortedByKey: true}
	for s, rows := range slots {
		if rows != nil {
			b.Producers = append(b.Producers, Producer{Key: lo + uint32(s), Rows: rows})
		}
	}
	return b, nil
}

func partitionHash(keys []uint32, dom props.Domain, hash hashtable.Func) *Bundle {
	hint := 16
	if dom.Known {
		hint = int(dom.Distinct)
	}
	idx := make(map[uint32]int, hint)
	b := &Bundle{}
	for i, k := range keys {
		p, ok := idx[k]
		if !ok {
			p = len(b.Producers)
			idx[k] = p
			b.Producers = append(b.Producers, Producer{Key: k})
		}
		b.Producers[p].Rows = append(b.Producers[p].Rows, int32(i))
	}
	_ = hash // the map is the engine-internal directory; the hash function
	// choice matters for the *operator-level* tables (see grouping.go) —
	// kept in the signature so callers state the decision explicitly.
	return b
}

func partitionRuns(keys []uint32, dom props.Domain) (*Bundle, error) {
	b := &Bundle{}
	if len(keys) == 0 {
		b.SortedByKey = true
		return b, nil
	}
	start := 0
	for i := 1; i <= len(keys); i++ {
		if i == len(keys) || keys[i] != keys[start] {
			rows := make([]int32, 0, i-start)
			for r := start; r < i; r++ {
				rows = append(rows, int32(r))
			}
			b.Producers = append(b.Producers, Producer{Key: keys[start], Rows: rows})
			start = i
		}
	}
	if dom.Known && len(b.Producers) > int(dom.Distinct) {
		return nil, fmt.Errorf("physical: runs partitioning on non-grouped input: %d runs for %d distinct keys", len(b.Producers), dom.Distinct)
	}
	ascending := true
	for i := 1; i < len(b.Producers); i++ {
		if b.Producers[i-1].Key > b.Producers[i].Key {
			ascending = false
			break
		}
	}
	b.SortedByKey = ascending
	return b, nil
}

// AggregateBundle implements line 2 of Figure 2: every producer is
// aggregated independently with the same aggregation function — COUNT, and
// SUM over vals unless vals is nil. With parallel > 1 producers are processed
// by a worker pool — legal precisely because the producers are independent.
// The output preserves producer order, so the bundle's SortedByKey property
// carries over to the result.
func AggregateBundle(b *Bundle, vals []int64, parallel int) *GroupResult {
	var args []aggArg
	if vals != nil {
		args = []aggArg{{vals: argVals{i64: vals}, need: needSum}}
	}
	return aggregateBundle(b, args, parallel)
}

// aggregateBundle is AggregateBundle over any number of argument columns.
// A producer is a window of row ids, so like OG's runs it folds straight
// into the output arrays.
func aggregateBundle(b *Bundle, args []aggArg, parallel int) *GroupResult {
	res := newGroupResult(make([]uint32, len(b.Producers)), args, nil)
	res.Sorted = b.SortedByKey
	aggOne := func(p int) {
		prod := &b.Producers[p]
		res.Keys[p] = prod.Key
		res.Counts[p] = int64(len(prod.Rows))
		for i, a := range args {
			sum, mn, mx := a.vals.fold(prod.Rows)
			if out := &res.Aggs[i]; out.Sum != nil {
				out.Sum[p] = sum
			}
			if out := &res.Aggs[i]; out.Min != nil {
				out.Min[p] = mn
			}
			if out := &res.Aggs[i]; out.Max != nil {
				out.Max[p] = mx
			}
		}
	}
	if parallel <= 1 || len(b.Producers) < 2 {
		for p := range b.Producers {
			aggOne(p)
		}
		return res
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				aggOne(p)
			}
		}()
	}
	for p := range b.Producers {
		work <- p
	}
	close(work)
	wg.Wait()
	return res
}
