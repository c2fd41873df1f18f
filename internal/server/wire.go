// Package server is the network face of AIM: a long-running TCP daemon
// (`aimd`) speaking a simple length-prefixed wire protocol — one SQL
// statement per frame, responses carrying rows, an affected-count, or a
// typed error — with per-connection sessions, a bounded accept/worker
// model, per-frame read/write deadlines, and graceful drain.
//
// The continuous-tuning advisor runs in-process against the *live*
// statement stream: every successfully executed statement is observed by a
// window collector, and each sealed window drives one advisor →
// shadow-gate → regression-detector cycle against the serving database —
// the deployment shape of the paper (§VI), where AIM tunes production
// traffic rather than a pre-recorded workload file.
//
// This file is the wire layer. A frame is a 4-byte big-endian payload
// length followed by the payload; zero-length and oversized frames are
// protocol errors. Request payloads start with a one-byte opcode; response
// payloads with a one-byte tag. All multi-byte integers are big-endian.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"aim/internal/sqltypes"
)

// MaxFrame is the largest payload either side accepts. Large enough for any
// realistic statement or result page, small enough that a corrupt length
// prefix cannot make the reader allocate gigabytes.
const MaxFrame = 1 << 20

// MaxTraceID caps the client-supplied trace ID carried by OpQueryTraced.
// Trace IDs are identifiers, not payloads; the cap keeps a hostile client
// from using the trace field as a memory amplifier in the slow log and the
// audit journal.
const MaxTraceID = 128

// Request opcodes.
const (
	// OpHello declares the session label (body: label bytes). Clients that
	// need deterministic statement attribution (experiments.Loop) send it
	// first; sessions without a hello get an accept-order label.
	OpHello = byte('H')
	// OpQuery executes one SQL statement (body: SQL text).
	OpQuery = byte('Q')
	// OpTune seals the collector's current window and runs one tuning cycle
	// synchronously (empty body). The response carries the cycle verdict.
	OpTune = byte('T')
	// OpPing is a liveness round-trip (empty body).
	OpPing = byte('P')
	// OpQueryTraced executes one SQL statement with a client-supplied trace
	// ID (body: u16 trace length | trace bytes | SQL text). Identical to
	// OpQuery in every other respect.
	OpQueryTraced = byte('q')
)

// Response tags.
const (
	// TagRows carries a SELECT result: columns and fully typed rows.
	TagRows = byte('R')
	// TagOK carries the affected-row count of a DML/DDL statement.
	TagOK = byte('K')
	// TagError carries a typed error (code + message).
	TagError = byte('E')
	// TagVerdict carries the rendered outcome of an OpTune cycle.
	TagVerdict = byte('V')
	// TagPong answers OpPing.
	TagPong = byte('O')
)

// Wire error codes carried by TagError responses.
const (
	CodeParse    uint16 = 1 // statement failed to parse
	CodeExec     uint16 = 2 // statement failed during execution
	CodeBadFrame uint16 = 3 // malformed or oversized request frame
	CodeDraining uint16 = 4 // server is draining; no new statements
	CodeTune     uint16 = 5 // tuning cycle failed
)

// Framing errors. ReadFrame wraps io errors from short reads as
// ErrTruncatedFrame so callers can distinguish a half-written frame from a
// clean EOF between frames.
var (
	ErrFrameTooLarge  = errors.New("server: frame exceeds MaxFrame")
	ErrZeroFrame      = errors.New("server: zero-length frame")
	ErrTruncatedFrame = errors.New("server: truncated frame")
)

// maxRetained bounds the buffers a connection keeps between frames. A frame
// larger than this is read into, or encoded in, a buffer of its own that the
// connection drops after the frame, so one large result cannot pin memory for
// the rest of the session.
const maxRetained = 64 << 10

// framer is one connection end's framed stream. Reads go through one
// bufio.Reader: one 4-byte header read, then the payload into a buffer reused
// across frames. Writes encode a frame behind a 4-byte length hole in a
// buffer reused across frames, patch the length in, and make one Write. The
// server session and Client each own one; neither is safe for concurrent use.
type framer struct {
	r    *bufio.Reader
	w    io.Writer
	hdr  [4]byte
	rbuf []byte // the last payload read
	wbuf []byte // the last frame written
}

func newFramer(rw io.ReadWriter) *framer {
	return &framer{r: bufio.NewReader(rw), w: rw}
}

// read returns the next payload. It aliases the framer's buffer and is valid
// only until the next read: DecodeRequest and DecodeResponse copy every
// string and value out of it.
func (f *framer) read() ([]byte, error) {
	p, err := readFrame(f.r, &f.hdr, f.rbuf, MaxFrame)
	if err == nil && cap(p) <= maxRetained {
		f.rbuf = p
	}
	return p, err
}

// frame starts a frame in the write buffer: the 4-byte hole send patches
// with the payload length. Append the payload to it, then send it.
func (f *framer) frame() []byte { return append(f.wbuf[:0], 0, 0, 0, 0) }

// send fills in the length hole of a frame begun by frame and writes the
// frame with one Write, so the header and the payload leave together.
func (f *framer) send(frame []byte) error {
	if cap(frame) <= maxRetained {
		f.wbuf = frame[:0]
	}
	n := len(frame) - 4
	if n == 0 {
		return ErrZeroFrame
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := f.w.Write(frame)
	return err
}

// WriteFrame writes one length-prefixed frame with one Write.
func WriteFrame(w io.Writer, payload []byte) error {
	f := framer{w: w}
	return f.send(append(f.frame(), payload...))
}

// ReadFrame reads one length-prefixed frame, rejecting zero-length frames
// and frames larger than max (max <= 0 means MaxFrame). A clean EOF before
// the first header byte returns io.EOF; EOF mid-frame returns
// ErrTruncatedFrame. It reads no further than the frame, so a caller may
// interleave it with other reads of r.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	return readFrame(r, new([4]byte), nil, max)
}

// readFrame reads one frame's header into hdr and its payload into buf,
// growing buf when the payload does not fit.
func readFrame(r io.Reader, hdr *[4]byte, buf []byte, max int) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, err // no byte of a header: a clean close between frames
		}
		return nil, truncated(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrZeroFrame
	}
	if n > uint32(max) {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, truncated(err)
	}
	return payload, nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncatedFrame
	}
	return err
}

// Request is one decoded client frame.
type Request struct {
	Op byte
	// SQL is the statement text (OpQuery, OpQueryTraced) or the session
	// label (OpHello).
	SQL string
	// Trace is the client-supplied trace ID (OpQueryTraced only; "" on every
	// other opcode).
	Trace string
}

// AppendRequest appends a request payload (opcode + body) to dst.
func AppendRequest(dst []byte, req Request) []byte {
	dst = append(dst, req.Op)
	if req.Op == OpQueryTraced {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Trace)))
		dst = append(dst, req.Trace...)
	}
	return append(dst, req.SQL...)
}

// EncodeRequest renders a request payload in a slice of its own.
func EncodeRequest(req Request) []byte { return AppendRequest(nil, req) }

// DecodeRequest parses a request payload.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) == 0 {
		return Request{}, ErrZeroFrame
	}
	switch p[0] {
	case OpHello, OpQuery, OpTune, OpPing:
		return Request{Op: p[0], SQL: string(p[1:])}, nil
	case OpQueryTraced:
		n, rest, err := takeUint16(p[1:])
		if err != nil {
			return Request{}, err
		}
		if n > MaxTraceID {
			return Request{}, fmt.Errorf("server: trace ID length %d exceeds %d", n, MaxTraceID)
		}
		if int(n) > len(rest) {
			return Request{}, fmt.Errorf("server: trace ID length %d exceeds payload", n)
		}
		return Request{Op: OpQueryTraced, Trace: string(rest[:n]), SQL: string(rest[n:])}, nil
	default:
		return Request{}, fmt.Errorf("server: unknown opcode 0x%02x", p[0])
	}
}

// Response is one decoded server frame.
type Response struct {
	Tag     byte
	Columns []string       // TagRows
	Rows    []sqltypes.Row // TagRows
	// Affected is the row count a DML statement touched (TagOK).
	Affected int64
	// Code and Msg describe a TagError; Verdict carries TagVerdict text.
	Code    uint16
	Msg     string
	Verdict string
}

// Err converts a TagError response into a Go error (nil for other tags).
func (r *Response) Err() error {
	if r.Tag != TagError {
		return nil
	}
	return fmt.Errorf("server: remote error %d: %s", r.Code, r.Msg)
}

// AppendResponse appends a response payload (tag + body) to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	switch resp.Tag {
	case TagRows:
		// u16 ncols | cols | u32 nrows | rows, values fully typed so the
		// client round-trips exactly what the engine produced.
		dst = append(dst, TagRows)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Columns)))
		for _, c := range resp.Columns {
			dst = appendString(dst, c)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Rows)))
		for _, row := range resp.Rows {
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(row)))
			for _, v := range row {
				dst = appendValue(dst, v)
			}
		}
		return dst
	case TagOK:
		return binary.BigEndian.AppendUint64(append(dst, TagOK), uint64(resp.Affected))
	case TagError:
		dst = binary.BigEndian.AppendUint16(append(dst, TagError), resp.Code)
		return append(dst, resp.Msg...)
	case TagVerdict:
		return append(append(dst, TagVerdict), resp.Verdict...)
	case TagPong:
		return append(dst, TagPong)
	default:
		return AppendResponse(dst, &Response{Tag: TagError, Msg: fmt.Sprintf("bad tag %d", resp.Tag)})
	}
}

// EncodeResponse renders a response payload in a slice of its own.
func EncodeResponse(resp *Response) []byte { return AppendResponse(nil, resp) }

// DecodeResponse parses a response payload. Every length and count is
// validated against the remaining payload, so a corrupt or adversarial
// frame yields an error, never a panic or an oversized allocation.
func DecodeResponse(p []byte) (*Response, error) {
	if len(p) == 0 {
		return nil, ErrZeroFrame
	}
	resp := &Response{Tag: p[0]}
	body := p[1:]
	switch resp.Tag {
	case TagRows:
		ncols, rest, err := takeUint16(body)
		if err != nil {
			return nil, err
		}
		cols := make([]string, 0, ncols)
		for i := 0; i < int(ncols); i++ {
			var s string
			if s, rest, err = takeString(rest); err != nil {
				return nil, err
			}
			cols = append(cols, s)
		}
		resp.Columns = cols
		nrowsU, rest, err := takeUint32(rest)
		if err != nil {
			return nil, err
		}
		nrows := int(nrowsU)
		// Each row costs at least the 2-byte width prefix; anything claiming
		// more rows than the payload could hold is corrupt.
		if nrows > len(rest)/2 {
			return nil, fmt.Errorf("server: row count %d exceeds payload", nrows)
		}
		rows := make([]sqltypes.Row, 0, nrows)
		for i := 0; i < nrows; i++ {
			var width uint16
			if width, rest, err = takeUint16(rest); err != nil {
				return nil, err
			}
			if int(width) > len(rest) {
				return nil, fmt.Errorf("server: row width %d exceeds payload", width)
			}
			row := make(sqltypes.Row, 0, width)
			for j := 0; j < int(width); j++ {
				var v sqltypes.Value
				if v, rest, err = takeValue(rest); err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("server: %d trailing bytes after rows", len(rest))
		}
		resp.Rows = rows
		return resp, nil
	case TagOK:
		if len(body) != 8 {
			return nil, fmt.Errorf("server: OK body must be 8 bytes, got %d", len(body))
		}
		resp.Affected = int64(binary.BigEndian.Uint64(body))
		return resp, nil
	case TagError:
		code, rest, err := takeUint16(body)
		if err != nil {
			return nil, err
		}
		resp.Code = code
		resp.Msg = string(rest)
		return resp, nil
	case TagVerdict:
		resp.Verdict = string(body)
		return resp, nil
	case TagPong:
		if len(body) != 0 {
			return nil, fmt.Errorf("server: pong carries no body")
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("server: unknown response tag 0x%02x", resp.Tag)
	}
}

// Value encoding: one kind byte, then a kind-specific payload. NULL has no
// payload; bools are one byte; ints and float bit patterns are 8 bytes;
// strings and bytes are u32-length-prefixed.
func appendValue(dst []byte, v sqltypes.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
		return dst
	case sqltypes.KindInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case sqltypes.KindFloat:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case sqltypes.KindBool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default: // KindString, KindBytes
		return appendString(dst, v.Str())
	}
}

func takeValue(p []byte) (sqltypes.Value, []byte, error) {
	if len(p) == 0 {
		return sqltypes.Null, nil, ErrTruncatedFrame
	}
	kind, rest := sqltypes.Kind(p[0]), p[1:]
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Null, rest, nil
	case sqltypes.KindInt:
		if len(rest) < 8 {
			return sqltypes.Null, nil, ErrTruncatedFrame
		}
		return sqltypes.NewInt(int64(binary.BigEndian.Uint64(rest))), rest[8:], nil
	case sqltypes.KindFloat:
		if len(rest) < 8 {
			return sqltypes.Null, nil, ErrTruncatedFrame
		}
		return sqltypes.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(rest))), rest[8:], nil
	case sqltypes.KindBool:
		if len(rest) < 1 {
			return sqltypes.Null, nil, ErrTruncatedFrame
		}
		return sqltypes.NewBool(rest[0] != 0), rest[1:], nil
	case sqltypes.KindString, sqltypes.KindBytes:
		// The constructors copy the payload out of the frame, tag and bytes
		// in one allocation.
		b, rest, err := takeBytes(rest)
		if err != nil {
			return sqltypes.Null, nil, err
		}
		if kind == sqltypes.KindBytes {
			return sqltypes.NewBytes(b), rest, nil
		}
		return sqltypes.NewStringBytes(b), rest, nil
	default:
		return sqltypes.Null, nil, fmt.Errorf("server: unknown value kind %d", kind)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeString(p []byte) (string, []byte, error) {
	b, rest, err := takeBytes(p)
	return string(b), rest, err
}

// takeBytes reads a u32-length-prefixed byte string, aliasing p.
func takeBytes(p []byte) ([]byte, []byte, error) {
	n, rest, err := takeUint32(p)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("server: string length %d exceeds payload", n)
	}
	return rest[:n], rest[n:], nil
}

func takeUint16(p []byte) (uint16, []byte, error) {
	if len(p) < 2 {
		return 0, nil, ErrTruncatedFrame
	}
	return binary.BigEndian.Uint16(p), p[2:], nil
}

func takeUint32(p []byte) (uint32, []byte, error) {
	if len(p) < 4 {
		return 0, nil, ErrTruncatedFrame
	}
	return binary.BigEndian.Uint32(p), p[4:], nil
}
