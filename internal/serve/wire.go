// Package serve is the network serving layer over a dqo.DB: an HTTP/JSON
// front-end with sessions, server-side prepared statements riding the
// engine's parameterised plan cache, per-tenant admission control, and
// graceful degradation under load (bounded queue, typed shedding, request
// timeouts, drain-on-shutdown). The wire types in this file are shared by
// the server, the thin Client, and dqoshell's \connect mode.
package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"dqo"
)

// QueryRequest is the body of POST /query: one-shot execution of a SQL
// statement. Args supply values for positional "?" parameters; a request
// with Args routes through the server's prepared-statement machinery (and
// therefore the plan-template cache) even without an explicit /prepare.
type QueryRequest struct {
	SQL  string `json:"sql"`
	Mode string `json:"mode,omitempty"` // sqo | dqo | cal | greedy; "" = server default
	Args []any  `json:"args,omitempty"`
	// Session is optional for /query; when set, the query is admitted under
	// the session's tenant gate and refreshes the session's TTL.
	Session string `json:"session,omitempty"`
	// TimeoutMillis bounds this request's execution; 0 uses the server
	// default, and values above the server maximum are clamped to it.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful /query or /execute: the result
// relation in row-major JSON plus summary measurements. The server encodes
// Rows from the result's columns a buffer at a time — large results never
// materialise a second row-major copy server-side. Decoded cells are
// json.Number for numeric columns and string for string columns.
type QueryResponse struct {
	Columns       []string `json:"columns"`
	Rows          [][]any  `json:"rows"`
	RowCount      int      `json:"row_count"`
	ElapsedMillis float64  `json:"elapsed_ms"`
}

// SessionRequest is the body of POST /session.
type SessionRequest struct {
	// Tenant scopes the session under a per-tenant admission gate; sessions
	// with the same tenant share slots. "" shares the anonymous gate.
	Tenant string `json:"tenant,omitempty"`
}

// SessionResponse returns the new session's handle and lease.
type SessionResponse struct {
	Session    string `json:"session"`
	TTLSeconds int64  `json:"ttl_seconds"`
}

// PrepareRequest is the body of POST /prepare: parse and name-check a
// statement once inside a session, keeping it for repeated /execute calls.
type PrepareRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode,omitempty"`
}

// PrepareResponse returns the statement handle. Preparing the same
// statement shape (same fingerprint and mode) twice in one session returns
// the original handle rather than a duplicate.
type PrepareResponse struct {
	Stmt      string `json:"stmt"`
	NumParams int    `json:"num_params"`
	// Fingerprint is the statement's normalized shape — the plan-cache key
	// component its executions share with same-shape concrete queries.
	Fingerprint string `json:"fingerprint"`
}

// ExecuteRequest is the body of POST /execute: run a prepared statement
// with one set of arguments.
type ExecuteRequest struct {
	Session       string `json:"session"`
	Stmt          string `json:"stmt"`
	Args          []any  `json:"args,omitempty"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Kind is a stable
// machine-readable label mirroring the engine's error taxonomy (see
// KindQueueFull and friends); Error is the human-readable detail.
type ErrorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// Error kinds carried in ErrorResponse.Kind, one per taxonomy sentinel the
// serving layer distinguishes. Clients dispatch on these, never on message
// text.
const (
	KindInvalid     = "invalid_request" // malformed JSON, bad SQL, unknown names/args
	KindQueueFull   = "queue_full"      // shed by admission control (HTTP 429)
	KindTimeout     = "timeout"         // request deadline expired (HTTP 504)
	KindCancelled   = "cancelled"       // client went away mid-query (HTTP 499 internally, 408 on the wire)
	KindMemBudget   = "memory_budget"   // per-query memory budget exceeded (HTTP 413)
	KindSpillBudget = "spill_budget"    // spill-disk budget exceeded (HTTP 413)
	KindNotFound    = "not_found"       // unknown session or statement handle (HTTP 404)
	KindDraining    = "draining"        // server is shutting down (HTTP 503)
	KindInternal    = "internal"        // engine panic or serving-layer bug (HTTP 500)
)

// ParseMode maps a wire mode name onto the engine's Mode. The empty string
// selects the given default.
func ParseMode(s string, def dqo.Mode) (dqo.Mode, error) {
	switch s {
	case "":
		return def, nil
	case "sqo":
		return dqo.ModeSQO, nil
	case "dqo":
		return dqo.ModeDQO, nil
	case "cal", "dqo-calibrated":
		return dqo.ModeDQOCalibrated, nil
	case "greedy":
		return dqo.ModeGreedy, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want sqo, dqo, cal, or greedy)", s)
	}
}

// ConvertArgs normalises decoded argument values into the Go types the
// engine's parameter binder accepts. The request decoder keeps a number as
// its literal text (json.Number): integral numbers become int64, everything
// else float64 — decoding straight to float64 would turn the integer 7 into
// 7.0 and break integer-column comparisons.
func ConvertArgs(args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case json.Number:
			if n, err := v.Int64(); err == nil {
				out[i] = n
				continue
			}
			f, err := v.Float64()
			if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, fmt.Errorf("argument %d: unrepresentable number %q", i+1, v.String())
			}
			out[i] = f
		case string:
			out[i] = v
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T (want number or string)", i+1, a)
		}
	}
	return out, nil
}
