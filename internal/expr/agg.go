package expr

import (
	"fmt"

	"dqo/internal/storage"
)

// AggFunc identifies an aggregation function. All are distributive or
// algebraic, so they can be computed "on the fly" and merged — the property
// the paper relies on for running aggregates inside SPH arrays.
type AggFunc uint8

// Aggregation functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// AggSpec requests one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Col  string // argument column; empty means COUNT(*)
	As   string // output column name
}

// String renders e.g. "SUM(v) AS total".
func (a AggSpec) String() string {
	arg := a.Col
	if arg == "" {
		arg = "*"
	}
	s := fmt.Sprintf("%s(%s)", a.Func, arg)
	if a.As != "" {
		s += " AS " + a.As
	}
	return s
}

// OutName returns the output column name, defaulting to e.g. "count_star" or
// "sum_v" when no alias was given.
func (a AggSpec) OutName() string {
	if a.As != "" {
		return a.As
	}
	arg := a.Col
	if arg == "" {
		arg = "star"
	}
	switch a.Func {
	case AggCount:
		return "count_" + arg
	case AggSum:
		return "sum_" + arg
	case AggMin:
		return "min_" + arg
	case AggMax:
		return "max_" + arg
	case AggAvg:
		return "avg_" + arg
	default:
		return "agg_" + arg
	}
}

// Validate checks the spec's internal consistency.
func (a AggSpec) Validate() error {
	if a.Func > AggAvg {
		return fmt.Errorf("expr: invalid aggregate function %d", a.Func)
	}
	if a.Col == "" && a.Func != AggCount {
		return fmt.Errorf("expr: %s requires an argument column", a.Func)
	}
	return nil
}

// OutKind is the kind of the aggregate's output column: AVG's mean is
// float64, every other aggregate int64.
func (a AggSpec) OutKind() storage.Kind {
	if a.Func == AggAvg {
		return storage.KindFloat64
	}
	return storage.KindInt64
}
