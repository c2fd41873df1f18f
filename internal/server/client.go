package server

import (
	"fmt"
	"net"
	"time"

	"aim/internal/sqltypes"
)

// Client is a minimal wire-protocol client: one connection, synchronous
// request/response. experiments.Loop and the CLIs use it; it is also the
// reference implementation of the client side of the framing.
type Client struct {
	conn    net.Conn
	f       *framer
	timeout time.Duration
}

// Dial connects to an aimd server. timeout bounds each frame round-trip
// (0 = 30 seconds).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %v", addr, err)
	}
	return &Client{conn: conn, f: newFramer(conn), timeout: timeout}, nil
}

// roundTrip sends one request frame and reads one response frame, each
// through the connection's reused buffers.
func (c *Client) roundTrip(req Request) (*Response, error) {
	c.conn.SetDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
	if err := c.f.send(AppendRequest(c.f.frame(), req)); err != nil {
		return nil, err
	}
	payload, err := c.f.read()
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// Hello declares the session label (deterministic window attribution).
func (c *Client) Hello(label string) error {
	resp, err := c.roundTrip(Request{Op: OpHello, SQL: label})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Tag != TagPong {
		return resp.Err()
	}
	return nil
}

// Result is the client-side outcome of one statement.
type Result struct {
	Columns  []string
	Rows     []sqltypes.Row
	Affected int64
}

// Query executes one SQL statement. Server-side statement failures come
// back as errors carrying the remote code and message.
func (c *Client) Query(sql string) (*Result, error) {
	return c.query(Request{Op: OpQuery, SQL: sql})
}

// QueryTraced executes one SQL statement carrying a client trace ID (an
// empty trace sends a plain Query). Trace IDs longer than MaxTraceID are
// truncated rather than rejected: an oversized ID is an annotation problem,
// not a reason to fail the statement.
func (c *Client) QueryTraced(trace, sql string) (*Result, error) {
	if trace == "" {
		return c.Query(sql)
	}
	if len(trace) > MaxTraceID {
		trace = trace[:MaxTraceID]
	}
	return c.query(Request{Op: OpQueryTraced, Trace: trace, SQL: sql})
}

func (c *Client) query(req Request) (*Result, error) {
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	switch resp.Tag {
	case TagRows:
		return &Result{Columns: resp.Columns, Rows: resp.Rows}, nil
	case TagOK:
		return &Result{Affected: resp.Affected}, nil
	default:
		return nil, resp.Err()
	}
}

// Tune seals the server's current window and runs one tuning cycle,
// returning the rendered verdict line.
func (c *Client) Tune() (string, error) {
	resp, err := c.roundTrip(Request{Op: OpTune})
	if err != nil {
		return "", err
	}
	if resp.Tag != TagVerdict {
		return "", resp.Err()
	}
	return resp.Verdict, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
