package dqo

import (
	"context"
	"strings"
	"testing"
)

// keyKindDB holds t and u with a key column of every kind: K uint32, V
// int64, F float64 and N a dictionary-encoded string.
func keyKindDB(t *testing.T) *DB {
	t.Helper()
	const n = 64
	k, v, f, s := make([]uint32, n), make([]int64, n), make([]float64, n), make([]string, n)
	for i := range k {
		k[i], v[i], f[i], s[i] = uint32(i%8), int64(i%5), float64(i%3), []string{"a", "b", "c"}[i%3]
	}
	db := Open()
	for _, name := range []string{"t", "u"} {
		tbl := NewTableBuilder(name).Uint32("K", k).Int64("V", v).Float64("F", f).String("N", s).MustBuild()
		if err := db.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestKeysMustBeKeyKinds: a join, grouping or sort key that is not a uint32
// column or a dictionary-encoded string — an int64 or float64 column, or an
// aggregate's output — is refused at bind with an sql: error naming the
// column and its kind, in every mode, literal or prepared, instead of failing
// in a kernel mid-execution.
func TestKeysMustBeKeyKinds(t *testing.T) {
	db := keyKindDB(t)
	rejected := []struct{ sql, col, kind string }{
		{"SELECT V FROM t WHERE K < ? ORDER BY V", "t.V", "int64"},
		{"SELECT F FROM t WHERE K < ? ORDER BY F", "t.F", "float64"},
		{"SELECT V, COUNT(*) FROM t WHERE K < ? GROUP BY V", "t.V", "int64"},
		{"SELECT F, COUNT(*) FROM t WHERE K < ? GROUP BY F", "t.F", "float64"},
		{"SELECT t.K FROM t JOIN u ON t.V = u.V WHERE t.K < ?", "t.V", "int64"},
		{"SELECT t.K FROM t JOIN u ON t.K = u.F WHERE t.K < ?", "u.F", "float64"},
		{"SELECT K, COUNT(*) AS c FROM t WHERE K < ? GROUP BY K ORDER BY c", "c", "int64"},
		{"SELECT K, SUM(V) FROM t WHERE K < ? GROUP BY K ORDER BY sum_t.V", "sum_t.V", "int64"},
	}
	accepted := []string{
		"SELECT K FROM t WHERE K < ? ORDER BY K",
		"SELECT N, COUNT(*) FROM t WHERE K < ? GROUP BY N ORDER BY N",
		"SELECT t.V FROM t JOIN u ON t.N = u.N WHERE t.K < ?",
	}
	ctx := context.Background()
	for _, mode := range declaredModes {
		for _, c := range rejected {
			check := func(how string, err error) {
				t.Helper()
				if err == nil || !strings.HasPrefix(err.Error(), "sql: ") ||
					!strings.Contains(err.Error(), " "+c.col+" ") || !strings.Contains(err.Error(), c.kind) {
					t.Errorf("%s/%s %q: err = %v, want an sql: error naming %s and %s", mode, how, c.sql, err, c.col, c.kind)
				}
			}
			_, err := db.Query(ctx, mode, strings.Replace(c.sql, "?", "4", 1))
			check("literal", err)
			_, err = db.Prepare(mode, c.sql)
			check("prepared", err)
		}
		for _, q := range accepted {
			if _, err := db.Query(ctx, mode, strings.Replace(q, "?", "4", 1)); err != nil {
				t.Errorf("%s/literal %q: %v", mode, q, err)
			}
			stmt, err := db.Prepare(mode, q)
			if err == nil {
				_, err = stmt.Query(ctx, 4)
			}
			if err != nil {
				t.Errorf("%s/prepared %q: %v", mode, q, err)
			}
		}
	}
}
