package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is a thin HTTP client against a dqoserve server, speaking the wire
// types in this package. It is used by dqoshell's \connect mode, the serve
// tests, and the benchmark harness. A Client is safe for concurrent use;
// the session handle, once set by NewSession, is read-only.
type Client struct {
	base    string
	hc      *http.Client
	session string

	// The four POST endpoints, parsed once: a request is a struct literal
	// over one of these, not a URL parsed per call. err is why base did not
	// parse, reported by every call.
	query, newSession, prepare, execute *url.URL
	err                                 error
}

// RemoteError is a non-2xx response decoded into the error envelope.
// Dispatch on Kind (the stable taxonomy label), not on the message.
type RemoteError struct {
	Status int    // HTTP status code
	Kind   string // one of the Kind* constants
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: %s (%s, HTTP %d)", e.Msg, e.Kind, e.Status)
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8080"). The optional http.Client overrides transport
// behaviour; nil uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc}
	endpoint := func(path string) *url.URL {
		u, err := url.Parse(c.base + path)
		if err != nil && c.err == nil {
			c.err = err
		}
		return u
	}
	c.query, c.newSession = endpoint("/query"), endpoint("/session")
	c.prepare, c.execute = endpoint("/prepare"), endpoint("/execute")
	return c
}

// Session returns the client's session handle ("" before NewSession).
func (c *Client) Session() string { return c.session }

// NewSession opens a server-side session under the tenant label and pins it
// to this client; subsequent Prepare/Execute calls run inside it.
func (c *Client) NewSession(ctx context.Context, tenant string) error {
	body, err := c.post(ctx, c.newSession, appendSessionRequest(nil, &SessionRequest{Tenant: tenant}))
	if err != nil {
		return err
	}
	var resp SessionResponse
	if err := decodeSessionResponse(body, &resp); err != nil {
		return fmt.Errorf("response body: %w", err)
	}
	c.session = resp.Session
	return nil
}

// CloseSession releases the client's session server-side.
func (c *Client) CloseSession(ctx context.Context) error {
	if c.session == "" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/session/"+c.session, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	c.session = ""
	return nil
}

// Query runs a one-shot query. mode "" selects the server default; args
// bind positional "?" parameters.
func (c *Client) Query(ctx context.Context, mode, sql string, args ...any) (*QueryResponse, error) {
	req, err := appendQueryRequest(nil, &QueryRequest{SQL: sql, Mode: mode, Args: args, Session: c.session})
	if err != nil {
		return nil, err
	}
	return c.rows(ctx, c.query, req)
}

// Prepare registers a statement in the client's session (NewSession first)
// and returns its handle.
func (c *Client) Prepare(ctx context.Context, mode, sql string) (*PrepareResponse, error) {
	req := appendPrepareRequest(nil, &PrepareRequest{Session: c.session, SQL: sql, Mode: mode})
	body, err := c.post(ctx, c.prepare, req)
	if err != nil {
		return nil, err
	}
	var resp PrepareResponse
	if err := decodePrepareResponse(body, &resp); err != nil {
		return nil, fmt.Errorf("response body: %w", err)
	}
	return &resp, nil
}

// Execute runs a prepared statement by handle with one set of arguments.
func (c *Client) Execute(ctx context.Context, stmt string, args ...any) (*QueryResponse, error) {
	req, err := appendExecuteRequest(nil, &ExecuteRequest{Session: c.session, Stmt: stmt, Args: args})
	if err != nil {
		return nil, err
	}
	return c.rows(ctx, c.execute, req)
}

// rows posts an encoded /query or /execute request and decodes the result.
func (c *Client) rows(ctx context.Context, u *url.URL, req []byte) (*QueryResponse, error) {
	body, err := c.post(ctx, u, req)
	if err != nil {
		return nil, err
	}
	resp := new(QueryResponse)
	if err := decodeQueryResponse(body, resp); err != nil {
		return nil, fmt.Errorf("response body: %w", err)
	}
	return resp, nil
}

// Metrics fetches the server's Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", decodeError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// post sends one encoded request body and returns the body of a 2xx
// response.
func (c *Client) post(ctx context.Context, u *url.URL, body []byte) (string, error) {
	if c.err != nil {
		return "", c.err
	}
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Host:          u.Host,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonType},
		Body:          io.NopCloser(bytes.NewReader(body)),
		GetBody:       func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
		ContentLength: int64(len(body)),
	}).WithContext(ctx)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", decodeError(resp)
	}
	buf := getBuf()
	defer putBuf(buf)
	if buf.b, err = appendAll(buf.b[:0], resp.Body); err != nil {
		return "", fmt.Errorf("response body: %w", err)
	}
	return string(buf.b), nil
}

// appendAll reads r to its end onto dst.
func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decodeError turns a non-2xx response into a *RemoteError.
func decodeError(resp *http.Response) error {
	var e ErrorResponse
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := decodeErrorResponse(string(body), &e); err != nil || e.Kind == "" {
		return &RemoteError{Status: resp.StatusCode, Kind: KindInternal,
			Msg: strings.TrimSpace(string(body))}
	}
	return &RemoteError{Status: resp.StatusCode, Kind: e.Kind, Msg: e.Error}
}
