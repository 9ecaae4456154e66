package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"dqo"
)

// This file is the wire codec both ends of the protocol share: the server
// decodes the four request bodies and encodes every response with it, the
// Client encodes requests and decodes responses with it. It is written
// against the wire types in wire.go by hand — append-style encoders and one
// strict scanner over flat objects — so a request costs no reflection and
// next to no allocation. encoding/json defines the bytes and the accepted
// inputs (codec_test.go holds the two against each other); the only thing
// imported from it here is the json.Number type response cells carry.

// ---------------------------------------------------------------------------
// Buffers

// wireBuf is a pooled byte buffer: a handler reads the request body into one
// and then builds the response in it.
type wireBuf struct{ b []byte }

// flushAt is the high-water mark of a response buffer: a result that encodes
// to less leaves in one write with a Content-Length, a longer one is flushed
// each time the buffer reaches the mark, so the server holds at most this
// much of any response.
const flushAt = 64 << 10

var bufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4<<10)} }}

func getBuf() *wireBuf { return bufPool.Get().(*wireBuf) }

// putBuf returns a buffer to the pool, unless one oversize row or body grew
// it far past the flush mark.
func putBuf(w *wireBuf) {
	if cap(w.b) <= 4*flushAt {
		w.b = w.b[:0]
		bufPool.Put(w)
	}
}

// ---------------------------------------------------------------------------
// Encoding

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does with
// its default HTML escaping: <, > and & as \u003c, \u003e and \u0026,
// control bytes as \u00XX except the five with a short form, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendFloat appends f as encoding/json renders a float of the given size
// (32 or 64 bits): the shortest digits that round-trip, exponent form below
// 1e-6 and from 1e21, and a two-digit negative exponent trimmed of its
// leading zero. f must be finite.
func appendFloat(dst []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendStrings appends a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendArgs appends a request's argument list. The Go types the engine's
// parameter binder accepts are encoded as encoding/json encodes them;
// anything else the server would refuse, so it is refused here.
func appendArgs(dst []byte, args []any) ([]byte, error) {
	dst = append(dst, '[')
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v := a.(type) {
		case int:
			dst = strconv.AppendInt(dst, int64(v), 10)
		case int32:
			dst = strconv.AppendInt(dst, int64(v), 10)
		case int64:
			dst = strconv.AppendInt(dst, v, 10)
		case uint32:
			dst = strconv.AppendUint(dst, uint64(v), 10)
		case uint64:
			dst = strconv.AppendUint(dst, v, 10)
		case float32:
			if f := float64(v); math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, fmt.Errorf("argument %d: JSON cannot carry %v", i+1, v)
			}
			dst = appendFloat(dst, float64(v), 32)
		case float64:
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("argument %d: JSON cannot carry %v", i+1, v)
			}
			dst = appendFloat(dst, v, 64)
		case json.Number:
			if v == "" {
				v = "0" // as encoding/json encodes the zero Number
			}
			if end, ok := scanNumber(string(v), 0); !ok || end != len(v) {
				return nil, fmt.Errorf("argument %d: %q is not a JSON number", i+1, string(v))
			}
			dst = append(dst, v...)
		case string:
			dst = appendString(dst, v)
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T (want number or string)", i+1, a)
		}
	}
	return append(dst, ']'), nil
}

// The request encoders mirror the struct tags in wire.go: members in field
// order, omitempty members left out when zero.

func appendQueryRequest(dst []byte, req *QueryRequest) ([]byte, error) {
	dst = appendString(append(dst, `{"sql":`...), req.SQL)
	if req.Mode != "" {
		dst = appendString(append(dst, `,"mode":`...), req.Mode)
	}
	if len(req.Args) > 0 {
		var err error
		if dst, err = appendArgs(append(dst, `,"args":`...), req.Args); err != nil {
			return nil, err
		}
	}
	if req.Session != "" {
		dst = appendString(append(dst, `,"session":`...), req.Session)
	}
	if req.TimeoutMillis != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), req.TimeoutMillis, 10)
	}
	return append(dst, '}'), nil
}

func appendSessionRequest(dst []byte, req *SessionRequest) []byte {
	if req.Tenant == "" {
		return append(dst, "{}"...)
	}
	return append(appendString(append(dst, `{"tenant":`...), req.Tenant), '}')
}

func appendPrepareRequest(dst []byte, req *PrepareRequest) []byte {
	dst = appendString(append(dst, `{"session":`...), req.Session)
	dst = appendString(append(dst, `,"sql":`...), req.SQL)
	if req.Mode != "" {
		dst = appendString(append(dst, `,"mode":`...), req.Mode)
	}
	return append(dst, '}')
}

func appendExecuteRequest(dst []byte, req *ExecuteRequest) ([]byte, error) {
	dst = appendString(append(dst, `{"session":`...), req.Session)
	dst = appendString(append(dst, `,"stmt":`...), req.Stmt)
	if len(req.Args) > 0 {
		var err error
		if dst, err = appendArgs(append(dst, `,"args":`...), req.Args); err != nil {
			return nil, err
		}
	}
	if req.TimeoutMillis != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), req.TimeoutMillis, 10)
	}
	return append(dst, '}'), nil
}

// The small responses end in a newline, as json.Encoder writes them.

func appendErrorResponse(dst []byte, kind, msg string) []byte {
	dst = appendString(append(dst, `{"kind":`...), kind)
	dst = appendString(append(dst, `,"error":`...), msg)
	return append(dst, '}', '\n')
}

func appendSessionResponse(dst []byte, resp *SessionResponse) []byte {
	dst = appendString(append(dst, `{"session":`...), resp.Session)
	dst = strconv.AppendInt(append(dst, `,"ttl_seconds":`...), resp.TTLSeconds, 10)
	return append(dst, '}', '\n')
}

func appendPrepareResponse(dst []byte, resp *PrepareResponse) []byte {
	dst = appendString(append(dst, `{"stmt":`...), resp.Stmt)
	dst = strconv.AppendInt(append(dst, `,"num_params":`...), int64(resp.NumParams), 10)
	dst = appendString(append(dst, `,"fingerprint":`...), resp.Fingerprint)
	return append(dst, '}', '\n')
}

// rowEncoder appends a result's rows from its typed column slices.
type rowEncoder struct {
	names []string
	cols  []dqo.Column
}

// newRowEncoder takes the result's columns. The one value JSON cannot carry
// is a non-finite float, so float columns are checked here: a response
// either encodes completely or fails before its first byte.
func newRowEncoder(res *dqo.Result) (rowEncoder, error) {
	e := rowEncoder{names: res.Columns()}
	e.cols = make([]dqo.Column, len(e.names))
	for j := range e.cols {
		e.cols[j] = res.ColumnAt(j)
		for i, f := range e.cols[j].Float64s {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return e, fmt.Errorf("result column %q row %d is %v, which JSON cannot carry", e.names[j], i, f)
			}
		}
	}
	return e, nil
}

// appendHead opens the QueryResponse body up to the first row.
func (e *rowEncoder) appendHead(dst []byte) []byte {
	return append(appendStrings(append(dst, `{"columns":`...), e.names), `,"rows":[`...)
}

// appendRow appends row i as a JSON array.
func (e *rowEncoder) appendRow(dst []byte, i int) []byte {
	dst = append(dst, '[')
	for j := range e.cols {
		if j > 0 {
			dst = append(dst, ',')
		}
		switch c := &e.cols[j]; {
		case c.Uint32s != nil:
			dst = strconv.AppendUint(dst, uint64(c.Uint32s[i]), 10)
		case c.Int64s != nil:
			dst = strconv.AppendInt(dst, c.Int64s[i], 10)
		case c.Uint64s != nil:
			dst = strconv.AppendUint(dst, c.Uint64s[i], 10)
		case c.Float64s != nil:
			dst = appendFloat(dst, c.Float64s[i], 64)
		default:
			dst = appendString(dst, c.Dict[c.Codes[i]])
		}
	}
	return append(dst, ']')
}

// appendTail closes the rows and appends the summary members. elapsed_ms is
// milliseconds in the %g form, to the microsecond.
func appendTail(dst []byte, rowCount int, elapsedMicros int64) []byte {
	dst = strconv.AppendInt(append(dst, `],"row_count":`...), int64(rowCount), 10)
	dst = strconv.AppendFloat(append(dst, `,"elapsed_ms":`...), float64(elapsedMicros)/1000, 'g', -1, 64)
	return append(dst, '}')
}

// ---------------------------------------------------------------------------
// Decoding

// A scanner reads one JSON object whose members are known by name and whose
// values are strings, numbers, or arrays of those (arrays of arrays for
// result rows). It is stricter than encoding/json: the body must be exactly
// one object, member names match exactly, an unknown or repeated name is an
// error, and null is accepted only in place of a member's whole value (as
// the zero value). Strings it returns are substrings of the input wherever
// the input needs no unescaping, so a decoded message shares one allocation
// with its body.
type scanner struct {
	in   string
	pos  int
	open bool   // the object's first member has been read
	seen uint32 // bit i set once fields[i] was read
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.in) {
		switch s.in[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte after white space, 0 at the end of input.
func (s *scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.in) {
		return s.in[s.pos]
	}
	return 0
}

// expect consumes the byte c after white space.
func (s *scanner) expect(c byte) error {
	if s.peek() != c {
		return s.errorf("expected %q", string(c))
	}
	s.pos++
	return nil
}

// member advances to the next member of the object and returns the index of
// its name in fields, with the scanner at its value. It returns -1 once the
// object is closed and nothing but white space follows.
func (s *scanner) member(fields []string) (int, error) {
	if !s.open {
		if err := s.expect('{'); err != nil {
			return 0, err
		}
	}
	switch c := s.peek(); {
	case c == '}':
		s.pos++
		if s.skipSpace(); s.pos < len(s.in) {
			return 0, s.errorf("data after the object")
		}
		return -1, nil
	case s.open && c != ',':
		return 0, s.errorf("expected ',' or '}'")
	case s.open:
		s.pos++
	}
	s.open = true
	if s.peek() != '"' {
		return 0, s.errorf("expected a member name")
	}
	name, err := s.str()
	if err != nil {
		return 0, err
	}
	if err := s.expect(':'); err != nil {
		return 0, err
	}
	s.skipSpace()
	for i, f := range fields {
		if f != name {
			continue
		}
		if s.seen&(1<<i) != 0 {
			return 0, s.errorf("duplicate field %q", name)
		}
		s.seen |= 1 << i
		return i, nil
	}
	return 0, s.errorf("unknown field %q", name)
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if len(s.in)-s.pos >= 4 && s.in[s.pos:s.pos+4] == "null" {
		s.pos += 4
		return true
	}
	return false
}

// stringValue reads a string member: a string, or null for "".
func (s *scanner) stringValue() (string, error) {
	if s.null() {
		return "", nil
	}
	if s.peek() != '"' {
		return "", s.errorf("expected a string")
	}
	return s.str()
}

// str reads the string literal at pos, unescaped exactly as encoding/json
// unescapes it: invalid UTF-8 and unpaired surrogates become U+FFFD.
func (s *scanner) str() (string, error) {
	start := s.pos + 1
	escaped, wide := false, false
	i := start
scan:
	for ; i < len(s.in); i++ {
		switch c := s.in[i]; {
		case c == '"':
			break scan
		case c < ' ':
			s.pos = i
			return "", s.errorf("control character in string")
		case c >= utf8.RuneSelf:
			wide = true
		case c == '\\':
			escaped = true
			i++
			if i >= len(s.in) {
				break scan
			}
			switch s.in[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if decodeHex4(s.in, i+1) < 0 {
					s.pos = i
					return "", s.errorf("invalid \\u escape")
				}
				i += 4
			default:
				s.pos = i
				return "", s.errorf("invalid escape")
			}
		}
	}
	if i >= len(s.in) {
		s.pos = len(s.in)
		return "", s.errorf("unterminated string")
	}
	s.pos = i + 1
	raw := s.in[start:i]
	if escaped || wide && !utf8.ValidString(raw) {
		return unescape(raw), nil
	}
	return raw, nil
}

// decodeHex4 decodes the four hex digits at s[i:], -1 if they are not.
func decodeHex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape resolves the escapes of a validated string body.
func unescape(raw string) string {
	b := make([]byte, 0, len(raw))
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			r++
			switch raw[r] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := decodeHex4(raw, r+1)
				r += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+2 < len(raw) && raw[r+1] == '\\' && raw[r+2] == 'u' {
						rr1 = decodeHex4(raw, r+3)
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6 // a valid pair: consume its second half too
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
			default: // '"', '\\', '/'
				b = append(b, raw[r])
			}
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRuneInString(raw[r:])
			b = utf8.AppendRune(b, rr) // RuneError for an invalid byte
			r += size
		}
	}
	return string(b)
}

// scanNumber returns the end of the JSON number starting at s[i].
func scanNumber(s string, i int) (end int, ok bool) {
	digits := func() bool {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return 0, false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	return i, true
}

// number reads the number literal at pos.
func (s *scanner) number() (string, error) {
	end, ok := scanNumber(s.in, s.pos)
	if !ok {
		return "", s.errorf("expected a number")
	}
	lit := s.in[s.pos:end]
	s.pos = end
	return lit, nil
}

// intValue reads an integer member: an integer literal that fits int64, or
// null for 0.
func (s *scanner) intValue() (int64, error) {
	if s.null() {
		return 0, nil
	}
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return 0, s.errorf("%s is not an integer in range", lit)
	}
	return n, nil
}

// floatValue reads a float member: a number in float64 range, or null for 0.
func (s *scanner) floatValue() (float64, error) {
	if s.null() {
		return 0, nil
	}
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, s.errorf("%s is out of range", lit)
	}
	return f, nil
}

// elements walks the array at pos, calling each once per element with the
// scanner at the element. null in place of the array is no elements.
func (s *scanner) elements(each func() error) error {
	if s.null() {
		return nil
	}
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	for {
		s.skipSpace()
		if err := each(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.errorf("expected ',' or ']'")
		}
	}
}

// scalar reads a string or a number, the latter kept as its literal text.
func (s *scanner) scalar() (any, error) {
	if s.pos < len(s.in) && s.in[s.pos] == '"' {
		return s.str()
	}
	lit, err := s.number()
	if err != nil {
		return nil, s.errorf("expected a number or a string")
	}
	return json.Number(lit), nil
}

// scalars reads an array of strings and numbers onto dst.
func (s *scanner) scalars(dst []any) ([]any, error) {
	err := s.elements(func() error {
		v, err := s.scalar()
		dst = append(dst, v)
		return err
	})
	return dst, err
}

// argsValue reads an args member: nil for null, else a non-nil list.
func (s *scanner) argsValue() ([]any, error) {
	if s.null() {
		return nil, nil
	}
	return s.scalars([]any{})
}

// Member names, in the order of the struct fields in wire.go.
var (
	queryRequestFields    = []string{"sql", "mode", "args", "session", "timeout_ms"}
	sessionRequestFields  = []string{"tenant"}
	prepareRequestFields  = []string{"session", "sql", "mode"}
	executeRequestFields  = []string{"session", "stmt", "args", "timeout_ms"}
	queryResponseFields   = []string{"columns", "rows", "row_count", "elapsed_ms"}
	sessionResponseFields = []string{"session", "ttl_seconds"}
	prepareResponseFields = []string{"stmt", "num_params", "fingerprint"}
	errorResponseFields   = []string{"kind", "error"}
)

// decodeObject drives a scanner over body, handing each member to set.
func decodeObject(body string, fields []string, set func(s *scanner, field int) error) error {
	s := scanner{in: body}
	for {
		i, err := s.member(fields)
		if err != nil || i < 0 {
			return err
		}
		if err := set(&s, i); err != nil {
			return err
		}
	}
}

func decodeQueryRequest(body string, req *QueryRequest) error {
	return decodeObject(body, queryRequestFields, func(s *scanner, field int) (err error) {
		switch field {
		case 0:
			req.SQL, err = s.stringValue()
		case 1:
			req.Mode, err = s.stringValue()
		case 2:
			req.Args, err = s.argsValue()
		case 3:
			req.Session, err = s.stringValue()
		default:
			req.TimeoutMillis, err = s.intValue()
		}
		return err
	})
}

func decodeSessionRequest(body string, req *SessionRequest) error {
	return decodeObject(body, sessionRequestFields, func(s *scanner, _ int) (err error) {
		req.Tenant, err = s.stringValue()
		return err
	})
}

func decodePrepareRequest(body string, req *PrepareRequest) error {
	return decodeObject(body, prepareRequestFields, func(s *scanner, field int) (err error) {
		switch field {
		case 0:
			req.Session, err = s.stringValue()
		case 1:
			req.SQL, err = s.stringValue()
		default:
			req.Mode, err = s.stringValue()
		}
		return err
	})
}

func decodeExecuteRequest(body string, req *ExecuteRequest) error {
	return decodeObject(body, executeRequestFields, func(s *scanner, field int) (err error) {
		switch field {
		case 0:
			req.Session, err = s.stringValue()
		case 1:
			req.Stmt, err = s.stringValue()
		case 2:
			req.Args, err = s.argsValue()
		default:
			req.TimeoutMillis, err = s.intValue()
		}
		return err
	})
}

func decodeQueryResponse(body string, resp *QueryResponse) error {
	return decodeObject(body, queryResponseFields, func(s *scanner, field int) (err error) {
		switch field {
		case 0:
			if s.null() {
				return nil
			}
			resp.Columns = []string{}
			return s.elements(func() error {
				if s.peek() != '"' {
					return s.errorf("expected a column name")
				}
				name, err := s.str()
				resp.Columns = append(resp.Columns, name)
				return err
			})
		case 1:
			if s.null() {
				return nil
			}
			// Every row's cells sit in one backing array, cut per row with
			// its capacity clipped so appending to a row cannot reach the next.
			resp.Rows = [][]any{}
			cells := []any{} // an empty row decodes to an empty list, not nil
			return s.elements(func() error {
				if s.peek() != '[' {
					return s.errorf("expected a row")
				}
				from := len(cells)
				cells, err = s.scalars(cells)
				resp.Rows = append(resp.Rows, cells[from:len(cells):len(cells)])
				return err
			})
		case 2:
			var n int64
			n, err = s.intValue()
			resp.RowCount = int(n)
		default:
			resp.ElapsedMillis, err = s.floatValue()
		}
		return err
	})
}

func decodeSessionResponse(body string, resp *SessionResponse) error {
	return decodeObject(body, sessionResponseFields, func(s *scanner, field int) (err error) {
		if field == 0 {
			resp.Session, err = s.stringValue()
		} else {
			resp.TTLSeconds, err = s.intValue()
		}
		return err
	})
}

func decodePrepareResponse(body string, resp *PrepareResponse) error {
	return decodeObject(body, prepareResponseFields, func(s *scanner, field int) (err error) {
		switch field {
		case 0:
			resp.Stmt, err = s.stringValue()
		case 1:
			var n int64
			n, err = s.intValue()
			resp.NumParams = int(n)
		default:
			resp.Fingerprint, err = s.stringValue()
		}
		return err
	})
}

func decodeErrorResponse(body string, resp *ErrorResponse) error {
	return decodeObject(body, errorResponseFields, func(s *scanner, field int) (err error) {
		if field == 0 {
			resp.Kind, err = s.stringValue()
		} else {
			resp.Error, err = s.stringValue()
		}
		return err
	})
}
