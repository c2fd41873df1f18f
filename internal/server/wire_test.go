package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"aim/internal/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{0x01},
		[]byte("QSELECT 1"),
		bytes.Repeat([]byte("x"), MaxFrame),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, MaxFrame)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, MaxFrame); err != io.EOF {
		t.Fatalf("EOF between frames must be io.EOF, got %v", err)
	}
}

func TestWriteFrameRejectsBadSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != ErrZeroFrame {
		t.Errorf("zero-length write: got %v, want ErrZeroFrame", err)
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Errorf("oversized write: got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected writes must not emit bytes, wrote %d", buf.Len())
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	hdr := make([]byte, 4) // length 0
	if _, err := ReadFrame(bytes.NewReader(hdr), MaxFrame); err != ErrZeroFrame {
		t.Fatalf("got %v, want ErrZeroFrame", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), MaxFrame); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// A corrupt length prefix must be rejected before any allocation: feed
	// a 4 GiB claim with no body and expect the typed error, instantly.
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), MaxFrame); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, []byte("Qhello")); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix except the empty one is a truncated frame.
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), MaxFrame)
		if err != ErrTruncatedFrame {
			t.Fatalf("cut at %d/%d: got %v, want ErrTruncatedFrame", cut, len(raw), err)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Op: OpHello, SQL: "lg-0001"},
		{Op: OpQuery, SQL: "SELECT id FROM events WHERE user_id = 7"},
		{Op: OpTune},
		{Op: OpPing},
		{Op: OpQueryTraced, Trace: "t-0001-2-7", SQL: "SELECT id FROM events WHERE user_id = 7"},
		{Op: OpQueryTraced, Trace: "", SQL: "SELECT 1"}, // trace field present but empty
		{Op: OpQueryTraced, Trace: strings.Repeat("x", MaxTraceID), SQL: "SELECT 1"},
	} {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%c: %v", req.Op, err)
		}
		if got != req {
			t.Fatalf("round trip changed %+v into %+v", req, got)
		}
	}
	if _, err := DecodeRequest([]byte{'Z', 'x'}); err == nil {
		t.Fatal("unknown opcode must not decode")
	}
	if _, err := DecodeRequest(nil); err != ErrZeroFrame {
		t.Fatalf("empty request: got %v, want ErrZeroFrame", err)
	}
}

// TestDecodeRequestTracedCorrupt feeds malformed v2 query frames: a cut
// length prefix, a trace claiming more bytes than the payload holds, and a
// trace over the MaxTraceID cap must all yield errors, never a panic.
func TestDecodeRequestTracedCorrupt(t *testing.T) {
	over := []byte{OpQueryTraced}
	over = binary.BigEndian.AppendUint16(over, MaxTraceID+1)
	over = append(over, bytes.Repeat([]byte("t"), MaxTraceID+1)...)
	cases := map[string][]byte{
		"cut length":     {OpQueryTraced, 0},
		"no length":      {OpQueryTraced},
		"trace overrun":  append(binary.BigEndian.AppendUint16([]byte{OpQueryTraced}, 40), 't', 'r'),
		"trace over cap": over,
	}
	for name, p := range cases {
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestResponseRoundTripAllKinds(t *testing.T) {
	want := &Response{
		Tag:     TagRows,
		Columns: []string{"id", "name", "score", "ok", "blob", "missing"},
		Rows: []sqltypes.Row{
			{
				sqltypes.NewInt(-42),
				sqltypes.NewString("héllo"),
				sqltypes.NewFloat(3.25),
				sqltypes.NewBool(true),
				sqltypes.NewBytes([]byte{0, 1, 2}),
				sqltypes.Null,
			},
			{
				sqltypes.NewInt(1 << 40),
				sqltypes.NewString(""),
				sqltypes.NewFloat(-0.5),
				sqltypes.NewBool(false),
				sqltypes.NewBytes(nil),
				sqltypes.Null,
			},
		},
	}
	got, err := DecodeResponse(EncodeResponse(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != len(want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("shape changed: %d cols %d rows", len(got.Columns), len(got.Rows))
	}
	for i, row := range want.Rows {
		for j, v := range row {
			g := got.Rows[i][j]
			if g.Kind() != v.Kind() || !sqltypes.Equal(g, v) {
				t.Errorf("row %d col %d: got %s %v, want %s %v", i, j, g.Kind(), g, v.Kind(), v)
			}
		}
	}
}

func TestResponseRoundTripScalars(t *testing.T) {
	for _, want := range []*Response{
		{Tag: TagOK, Affected: 123},
		{Tag: TagOK, Affected: -1},
		{Tag: TagError, Code: CodeDraining, Msg: "server draining"},
		{Tag: TagVerdict, Verdict: "cycle 0: stmts=10 queries=2 accepted[ok]"},
		{Tag: TagPong},
	} {
		got, err := DecodeResponse(EncodeResponse(want))
		if err != nil {
			t.Fatalf("%c: %v", want.Tag, err)
		}
		if got.Affected != want.Affected || got.Code != want.Code || got.Msg != want.Msg || got.Verdict != want.Verdict {
			t.Fatalf("round trip changed %+v into %+v", want, got)
		}
	}
	if err := (&Response{Tag: TagError, Code: CodeExec, Msg: "boom"}).Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("TagError.Err() = %v", err)
	}
	if err := (&Response{Tag: TagOK}).Err(); err != nil {
		t.Fatalf("TagOK.Err() = %v", err)
	}
}

// TestRetiredSlowOpcodeIsBadFrame: the slow-query log left the wire for
// /slowz, so a peer that still sends 'S' gets the bad-frame error and the
// connection closes, like any unknown opcode; its old 'L' answer no longer
// decodes either.
func TestRetiredSlowOpcodeIsBadFrame(t *testing.T) {
	if _, err := DecodeRequest([]byte{'S'}); err == nil {
		t.Fatal("'S' decoded as a request")
	}
	if _, err := DecodeResponse([]byte("L[]")); err == nil {
		t.Fatal("'L' decoded as a response")
	}
	_, addr := startTestServer(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if err := WriteFrame(conn, []byte{'S'}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(conn, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil || resp.Tag != TagError || resp.Code != CodeBadFrame {
		t.Fatalf("answer to 'S' = %+v, %v; want the bad-frame error", resp, err)
	}
	if _, err := ReadFrame(conn, MaxFrame); err != io.EOF {
		t.Fatalf("after the bad frame: %v, want the server to close (EOF)", err)
	}
}

// TestTakeValueAllocatesOncePerString: a decoded STRING or BYTES column is
// one allocation, the value's tag and payload together, copied straight out
// of the frame; a numeric column allocates nothing.
func TestTakeValueAllocatesOncePerString(t *testing.T) {
	for _, v := range []sqltypes.Value{
		sqltypes.NewString("a short note"),
		sqltypes.NewBytes([]byte{0, 1, 2, 0xFF}),
		sqltypes.NewInt(-7),
		sqltypes.NewFloat(2.5),
	} {
		enc := appendValue(nil, v)
		want := 0.0
		if v.Kind() == sqltypes.KindString || v.Kind() == sqltypes.KindBytes {
			want = 1
		}
		allocs := testing.AllocsPerRun(100, func() {
			got, rest, err := takeValue(enc)
			if err != nil || len(rest) != 0 || got != v {
				t.Fatalf("takeValue(%x) = %v, %x, %v; want %v", enc, got, rest, err, v)
			}
		})
		if allocs != want {
			t.Errorf("decoding %v made %.1f allocations, want %.0f", v, allocs, want)
		}
	}
}

// TestDecodeResponseCorrupt feeds structurally invalid response payloads;
// every one must produce an error, never a panic or a giant allocation.
func TestDecodeResponseCorrupt(t *testing.T) {
	huge := []byte{TagRows}
	huge = binary.BigEndian.AppendUint16(huge, 1)
	huge = binary.BigEndian.AppendUint32(huge, 0xFFFFFFFF) // column name "length"
	cases := map[string][]byte{
		"empty":               nil,
		"unknown tag":         {0x7F, 1, 2, 3},
		"rows: cut count":     {TagRows, 0},
		"rows: huge string":   huge,
		"rows: row overclaim": append(binary.BigEndian.AppendUint16([]byte{TagRows}, 0), 0, 0, 0, 9, 0, 1), // 9 rows, 2 bytes
		"ok: short body":      {TagOK, 1, 2, 3},
		"pong: trailing":      {TagPong, 1},
		"error: cut code":     {TagError, 0},
	}
	for name, p := range cases {
		if _, err := DecodeResponse(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Trailing bytes after a well-formed row block are corruption too.
	good := EncodeResponse(&Response{Tag: TagRows, Columns: []string{"a"}, Rows: []sqltypes.Row{{sqltypes.NewInt(1)}}})
	if _, err := DecodeResponse(append(good, 0xAA)); err == nil {
		t.Error("trailing bytes: decoded without error")
	}
}

// FuzzWireFrame fuzzes both framing layers: arbitrary bytes through
// ReadFrame, and the surviving payloads through the request and response
// decoders. The invariant is totality — any input yields a value or an
// error, with no panics, and anything that decodes as a response re-encodes
// and re-decodes to the same wire image (round-trip stability).
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	var seed bytes.Buffer
	WriteFrame(&seed, EncodeRequest(Request{Op: OpQuery, SQL: "SELECT 1"})) //nolint:errcheck
	f.Add(seed.Bytes())
	// v2 frames: a traced query (trace present), a traced query with the
	// trace field empty, and a truncated traced frame (length prefix claims
	// more trace bytes than the payload holds).
	var traced bytes.Buffer
	WriteFrame(&traced, EncodeRequest(Request{Op: OpQueryTraced, Trace: "t-0001-0-1", SQL: "SELECT 1"})) //nolint:errcheck
	f.Add(traced.Bytes())
	var untraced bytes.Buffer
	WriteFrame(&untraced, EncodeRequest(Request{Op: OpQueryTraced, SQL: "SELECT 1"})) //nolint:errcheck
	f.Add(untraced.Bytes())
	var cut bytes.Buffer
	WriteFrame(&cut, append(binary.BigEndian.AppendUint16([]byte{OpQueryTraced}, 200), 'x')) //nolint:errcheck
	f.Add(cut.Bytes())
	// The retired slow-log request and its JSON answer: both now decode as
	// unknown.
	var slowReq bytes.Buffer
	WriteFrame(&slowReq, []byte{'S'}) //nolint:errcheck
	f.Add(slowReq.Bytes())
	var slowResp bytes.Buffer
	WriteFrame(&slowResp, []byte(`L[{"session":"s","seq":1,"trace":"t","sql":"SELECT 1","slow":true}]`)) //nolint:errcheck
	f.Add(slowResp.Bytes())
	var rows bytes.Buffer
	WriteFrame(&rows, EncodeResponse(&Response{ //nolint:errcheck
		Tag:     TagRows,
		Columns: []string{"id", "v"},
		Rows:    []sqltypes.Row{{sqltypes.NewInt(7), sqltypes.NewString("x")}},
	}))
	f.Add(rows.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), MaxFrame)
		if err != nil {
			// Errors must be the typed framing errors or clean EOF — never a
			// raw short-read leaking through.
			if !errors.Is(err, io.EOF) && err != ErrZeroFrame && err != ErrFrameTooLarge && err != ErrTruncatedFrame {
				t.Fatalf("unexpected framing error type: %v", err)
			}
			return
		}
		if len(payload) == 0 || len(payload) > MaxFrame {
			t.Fatalf("ReadFrame returned %d bytes outside (0, MaxFrame]", len(payload))
		}
		// Whatever decodes must re-encode to a decodable image.
		if req, err := DecodeRequest(payload); err == nil {
			if again, err := DecodeRequest(EncodeRequest(req)); err != nil || again != req {
				t.Fatalf("request round trip diverged: %+v vs %+v (%v)", req, again, err)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			wire := EncodeResponse(resp)
			if _, err := DecodeResponse(wire); err != nil {
				t.Fatalf("re-encoded response stopped decoding: %v", err)
			}
		}
	})
}
