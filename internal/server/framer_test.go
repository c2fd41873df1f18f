package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"aim/internal/sqltypes"
)

// countingConn counts the Read and Write calls that reach a connection.
// Writes count on entry, so a peer that has the bytes sees the count; reads
// count on return, so a read parked for the next frame is not counted yet.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWriteAndOneReadPerFrame drives a server session and a Client over
// an in-memory pipe and counts the calls each end makes on its connection:
// every request and every response leaves in exactly one Write, and every
// frame, arriving whole, is consumed with exactly one Read.
func TestOneWriteAndOneReadPerFrame(t *testing.T) {
	s := New(Options{DB: kvDB()})
	srvEnd, cliEnd := net.Pipe()
	sc, cc := &countingConn{Conn: srvEnd}, &countingConn{Conn: cliEnd}
	s.sessions.Add(1)
	go s.serve(sc, <-s.sem)
	defer s.sessions.Wait()
	c := &Client{conn: cc, f: newFramer(cc), timeout: 5 * time.Second}
	defer c.Close()

	if err := c.Hello("counted"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	frames := int64(2)
	for i := 0; i < 10; i++ {
		res, err := c.Query(fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(3*i) {
			t.Fatalf("SELECT %d = %+v, %v", i, res, err)
		}
		if _, err := c.Query(fmt.Sprintf("UPDATE kv SET v = %d WHERE id = %d", 3*i, i)); err != nil {
			t.Fatal(err)
		}
		frames += 2
	}
	if _, err := c.Query("SELEKT broken"); err == nil {
		t.Fatal("a parse error came back as success")
	}
	frames++
	for _, got := range []struct {
		what string
		n    int64
	}{
		{"server writes", sc.writes.Load()},
		{"server reads", sc.reads.Load()},
		{"client writes", cc.writes.Load()},
		{"client reads", cc.reads.Load()},
	} {
		if got.n != frames {
			t.Errorf("%s: %d calls for %d frames, want one per frame", got.what, got.n, frames)
		}
	}
}

// scribble overwrites a buffer with garbage, as the next frame read into a
// reused buffer would.
func scribble(p []byte) {
	for i := range p {
		p[i] = 0xA5
	}
}

// TestDecodedFramesOutliveTheBuffer pins what makes buffer reuse safe:
// decoded requests and responses share no byte with the payload they came
// from, so overwriting the payload changes none of them.
func TestDecodedFramesOutliveTheBuffer(t *testing.T) {
	var wire bytes.Buffer
	f := newFramer(&wire)
	reqs := []Request{
		{Op: OpQuery, SQL: "SELECT v FROM kv WHERE id = 3"},
		{Op: OpQueryTraced, Trace: "t-0001-0-1", SQL: "SELECT v FROM kv WHERE id = 4"},
		{Op: OpHello, SQL: "lg-0001"},
	}
	for _, want := range reqs {
		if err := f.send(AppendRequest(f.frame(), want)); err != nil {
			t.Fatal(err)
		}
		p, err := f.read()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(p)
		scribble(p)
		if err != nil || got != want {
			t.Fatalf("decoded %+v (%v), want %+v after the payload was overwritten", got, err, want)
		}
	}

	row := sqltypes.Row{sqltypes.NewInt(-42), sqltypes.NewString("héllo"), sqltypes.NewFloat(3.25),
		sqltypes.NewBool(true), sqltypes.NewBytes([]byte{0, 1, 2}), sqltypes.Null}
	resps := []*Response{
		{Tag: TagRows, Columns: []string{"id", "name", "score", "ok", "blob", "missing"}, Rows: []sqltypes.Row{row, row}},
		{Tag: TagError, Code: CodeExec, Msg: "boom"},
		{Tag: TagVerdict, Verdict: "cycle 0: stmts=10 queries=2 accepted[ok]"},
	}
	for _, want := range resps {
		if err := f.send(AppendResponse(f.frame(), want)); err != nil {
			t.Fatal(err)
		}
		p, err := f.read()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(p)
		scribble(p)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("decoded %+v, want %+v after the payload was overwritten", got, want)
		}
	}
}

// repeatReader replays one frame forever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestSteadyStateFramingAllocs pins the framing cost of a served statement
// once a connection's buffers exist: encoding and writing a TagOK or a
// one-row response allocates nothing, and reading and decoding a query frame
// allocates only its SQL string.
func TestSteadyStateFramingAllocs(t *testing.T) {
	var query bytes.Buffer
	if err := WriteFrame(&query, EncodeRequest(Request{Op: OpQuery, SQL: "SELECT v FROM kv WHERE id = 3"})); err != nil {
		t.Fatal(err)
	}
	f := newFramer(struct {
		io.Reader
		io.Writer
	}{&repeatReader{frame: query.Bytes()}, io.Discard})
	for _, resp := range []*Response{
		{Tag: TagOK, Affected: 1},
		{Tag: TagRows, Columns: []string{"v", "note"}, Rows: []sqltypes.Row{{sqltypes.NewInt(9), sqltypes.NewString("x")}}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := f.send(AppendResponse(f.frame(), resp)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("writing a %c response made %.1f allocations, want 0", resp.Tag, allocs)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		p, err := f.read()
		if err != nil {
			t.Fatal(err)
		}
		if req, err := DecodeRequest(p); err != nil || req.Op != OpQuery {
			t.Fatalf("decoded %+v, %v", req, err)
		}
	})
	if allocs != 1 {
		t.Errorf("reading a query frame made %.1f allocations, want 1 (its SQL string)", allocs)
	}
}

// TestLargeFramesAreNotRetained: a frame over maxRetained is read into and
// encoded in buffers the connection drops after it, so a session that once
// carried a large result holds no buffer of that size, and the frames after
// it still go through.
func TestLargeFramesAreNotRetained(t *testing.T) {
	var wire bytes.Buffer
	f := newFramer(&wire)
	small := &Response{Tag: TagOK, Affected: 7}
	large := &Response{Tag: TagVerdict, Verdict: strings.Repeat("v", maxRetained+1)}
	for _, resp := range []*Response{small, large, small} {
		if err := f.send(AppendResponse(f.frame(), resp)); err != nil {
			t.Fatal(err)
		}
		if cap(f.wbuf) > maxRetained {
			t.Fatalf("after writing a %d-byte frame the write buffer holds %d bytes", wire.Len(), cap(f.wbuf))
		}
	}
	for _, want := range []*Response{small, large, small} {
		p, err := f.read()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Affected != want.Affected || got.Verdict != want.Verdict {
			t.Fatalf("a %d-byte frame decoded to %c with %d affected and a %d-byte verdict", len(p), got.Tag, got.Affected, len(got.Verdict))
		}
		if cap(f.rbuf) > maxRetained {
			t.Fatalf("after reading a %d-byte frame the read buffer holds %d bytes", len(p), cap(f.rbuf))
		}
	}
}

// FuzzFrameStream feeds a sequence of frames through a framer over readers
// that split the stream at arbitrary boundaries, and through a read buffer
// smaller than most payloads: it must yield the same frames as one-at-a-time
// ReadFrame calls, and a stream cut at any byte offset must end in io.EOF
// exactly at frame boundaries and in ErrTruncatedFrame everywhere else.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte("\x03abc\x01x\x00\x05hello"), uint8(0))
	f.Add([]byte("\x10QSELECT 1 FROM t\x02Pz"), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, spec []byte, mode uint8) {
		// The cut loop below is quadratic in the stream, and the fuzzer's
		// minimizer runs the target about n² times for an n-byte input: a
		// bounded spec keeps both short, so the budget goes to fuzzing.
		spec = spec[:min(len(spec), 96)]
		// spec is a sequence of length bytes, each followed by that many
		// payload bytes; a zero length stands for one, since zero-length
		// frames are protocol errors.
		var payloads [][]byte
		for len(spec) > 1 {
			n := min(max(int(spec[0]), 1), len(spec)-1)
			payloads = append(payloads, spec[1:1+n])
			spec = spec[1+n:]
		}
		var wire bytes.Buffer
		w := newFramer(&wire)
		ends := []int{0}
		for _, p := range payloads {
			if err := w.send(append(w.frame(), p...)); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, wire.Len())
		}
		stream := wire.Bytes()

		ref := bytes.NewReader(stream)
		for i, want := range payloads {
			if got, err := ReadFrame(ref, MaxFrame); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadFrame %d = %x, %v; want %x", i, got, err, want)
			}
		}
		split := func(r io.Reader) io.Reader {
			switch mode % 3 {
			case 0:
				return iotest.OneByteReader(r)
			case 1:
				return iotest.HalfReader(r)
			default:
				return iotest.DataErrReader(r)
			}
		}
		readAll := func(data []byte) ([][]byte, error) {
			r := &framer{r: bufio.NewReaderSize(split(bytes.NewReader(data)), 16)}
			var got [][]byte
			for {
				p, err := r.read()
				if err != nil {
					return got, err
				}
				got = append(got, bytes.Clone(p))
			}
		}
		whole := 0
		for cut := 0; cut <= len(stream); cut++ {
			for whole+1 < len(ends) && ends[whole+1] <= cut {
				whole++
			}
			want := ErrTruncatedFrame
			if ends[whole] == cut {
				want = io.EOF
			}
			got, err := readAll(stream[:cut])
			if err != want || len(got) != whole {
				t.Fatalf("cut at %d of %d: %d frames then %v; want %d frames then %v", cut, len(stream), len(got), err, whole, want)
			}
			for i := range got {
				if !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("cut at %d: frame %d = %x, want %x", cut, i, got[i], payloads[i])
				}
			}
		}
	})
}
