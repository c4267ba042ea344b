package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// TGE1 is the compact binary spill format for event streams: the 4-byte
// magic "TGE1" followed by fixed-width little-endian records (no count
// header — spills are append-only and may be truncated by a crash, so
// the reader streams until EOF). Each record is 37 bytes:
//
//	At   int64   (8)
//	Node uint32  (4)
//	Kind uint8   (1)
//	Addr uint64  (8)
//	Val  uint64  (8)
//	Aux  uint64  (8)
//
// A WindowedLog with a SpillWriter attached pages every drained event
// to the spill in canonical order, so the file is a faithful prefix of
// the canonical merged stream and can be replayed offline by tgtrace.
var eventMagic = [4]byte{'T', 'G', 'E', '1'}

// spillRecSize is the fixed encoded size of one event record.
const spillRecSize = 8 + 4 + 1 + 8 + 8 + 8

// maxSpillNode bounds the node rank representable in a record.
const maxSpillNode = 1<<32 - 1

// encodeEvent packs e into buf (little-endian, spillRecSize bytes).
func encodeEvent(buf []byte, e Event) {
	put64(buf[0:], uint64(e.At))
	put32(buf[8:], uint32(e.Node))
	buf[12] = byte(e.Kind)
	put64(buf[13:], e.Addr)
	put64(buf[21:], e.Val)
	put64(buf[29:], e.Aux)
}

// decodeEvent unpacks a record encoded by encodeEvent.
func decodeEvent(buf []byte) Event {
	return Event{
		At:   int64(get64(buf[0:])),
		Node: int(get32(buf[8:])),
		Kind: EventKind(buf[12]),
		Addr: get64(buf[13:]),
		Val:  get64(buf[21:]),
		Aux:  get64(buf[29:]),
	}
}

// SpillWriter encodes an event stream in the TGE1 format using one
// reusable record buffer (no per-record reflection or allocation).
type SpillWriter struct {
	bw  *bufio.Writer
	c   io.Closer
	buf [spillRecSize]byte
}

// NewSpillWriter starts a TGE1 stream on w (writes the magic).
func NewSpillWriter(w io.Writer) (*SpillWriter, error) {
	sw := &SpillWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		sw.c = c
	}
	if _, err := sw.bw.Write(eventMagic[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// NewFileSpill creates (truncating) a TGE1 spill file at path. Close
// flushes and closes the file. The spill writer is the one place the
// trace pipeline touches the host filesystem: paging overflowing
// windows to disk is its whole point.
func NewFileSpill(path string) (*SpillWriter, error) {
	f, err := os.Create(path) //tgvet:allow tracesink(the spill writer pages trace windows to disk by design; everything else in the pipeline stays in simulated memory)
	if err != nil {
		return nil, err
	}
	sw, err := NewSpillWriter(f)
	if err != nil {
		f.Close() //tgvet:allow tracesink(unwind the spill file handle when the header write fails)
		return nil, err
	}
	return sw, nil
}

// Write appends one record. Node must fit the on-disk rank field.
func (s *SpillWriter) Write(e Event) error {
	if e.Node < 0 || int64(e.Node) > maxSpillNode {
		return fmt.Errorf("trace: spill: node %d out of range [0, %d]", e.Node, int64(maxSpillNode))
	}
	encodeEvent(s.buf[:], e)
	_, err := s.bw.Write(s.buf[:])
	return err
}

// Flush forces buffered records to the underlying writer.
func (s *SpillWriter) Flush() error { return s.bw.Flush() }

// Close flushes and, if the underlying writer is a Closer (e.g. the
// file from NewFileSpill), closes it.
func (s *SpillWriter) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// SpillReader decodes a TGE1 stream.
type SpillReader struct {
	br  *bufio.Reader
	buf [spillRecSize]byte
}

// NewSpillReader checks the magic and positions r at the first record.
func NewSpillReader(r io.Reader) (*SpillReader, error) {
	sr := &SpillReader{br: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(sr.br, m[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: spill: truncated magic")
		}
		return nil, err
	}
	if m != eventMagic {
		return nil, fmt.Errorf("trace: spill: bad magic %q", m)
	}
	return sr, nil
}

// Next returns the next record; io.EOF at a clean end of stream, an
// error describing the truncation if the last record is partial.
func (s *SpillReader) Next() (Event, error) {
	n, err := io.ReadFull(s.br, s.buf[:])
	if err == io.EOF {
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: spill: truncated record (%d of %d bytes): %v", n, spillRecSize, err)
	}
	return decodeEvent(s.buf[:]), nil
}

// ReadSpill decodes a whole TGE1 stream (for offline replay / tests).
func ReadSpill(r io.Reader) ([]Event, error) {
	sr, err := NewSpillReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	for {
		e, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// put32 stores v little-endian.
func put32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// get32 loads a little-endian uint32.
func get32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// get64 loads a little-endian uint64.
func get64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
