package trace

import (
	"bufio"
	"fmt"
	"io"
)

// TGC1 is the checkpoint format for engine-visible trace state: the
// running fingerprint, merged-count/watermark, spill offset, and the
// undrained per-node window contents, captured at a barrier boundary
// (no shard executing, so the rings are consistent). Restoring a
// checkpoint and continuing the run reproduces the uninterrupted run's
// final trace hash bit-for-bit: the fingerprint only depends on the
// canonical merged stream, and the checkpoint carries both the folded
// prefix (Hash) and the not-yet-folded suffix (Windows).
var ckptMagic = [4]byte{'T', 'G', 'C', '1'}

// Checkpoint is a point-in-time capture of a WindowedLog.
type Checkpoint struct {
	// Hash is the running fingerprint over the drained prefix.
	Hash uint64
	// Merged is the number of events drained so far.
	Merged uint64
	// LastAt is the timestamp of the last drained event.
	LastAt int64
	// Spilled is the number of records written to the spill so far
	// (the offset at which a resumed run's spill writer continues).
	Spilled uint64
	// Windows holds each node's undrained ring contents, oldest first.
	Windows [][]Event
}

// Checkpoint captures the log's current state. Call only when no shard
// is executing (a barrier boundary or after quiescence).
func (w *WindowedLog) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Hash:    w.hash,
		Merged:  w.merged,
		LastAt:  w.lastAt,
		Windows: make([][]Event, len(w.win)),
	}
	if w.spill != nil {
		c.Spilled = w.spill.Records()
	}
	for i := range w.win {
		nw := &w.win[i]
		evs := make([]Event, nw.n)
		for j := 0; j < nw.n; j++ {
			k := nw.head + j
			if k >= len(nw.buf) {
				k -= len(nw.buf)
			}
			evs[j] = nw.buf[k]
		}
		c.Windows[i] = evs
	}
	return c
}

// RestoreWindowedLog rebuilds a windowed log from a checkpoint, with
// initial per-node ring capacity window (DefaultWindow if <= 0). Sinks and the
// spill writer are not part of the checkpoint; the caller re-attaches
// them (positioning the spill at c.Spilled records if resuming a file).
func RestoreWindowedLog(c *Checkpoint, window int) *WindowedLog {
	w := NewWindowedLog(len(c.Windows), window)
	w.hash = c.Hash
	w.merged = c.Merged
	w.lastAt = c.LastAt
	for i, evs := range c.Windows {
		for _, e := range evs {
			w.win[i].push(e)
		}
	}
	return w
}

// Encode writes the checkpoint in the TGC1 binary format.
func (c *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	var hdr [8 * 5]byte
	put64(hdr[0:], c.Hash)
	put64(hdr[8:], c.Merged)
	put64(hdr[16:], uint64(c.LastAt))
	put64(hdr[24:], c.Spilled)
	put64(hdr[32:], uint64(len(c.Windows)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [spillRecSize]byte
	var cnt [8]byte
	for _, evs := range c.Windows {
		put64(cnt[:], uint64(len(evs)))
		if _, err := bw.Write(cnt[:]); err != nil {
			return err
		}
		for _, e := range evs {
			if e.Node < 0 || int64(e.Node) > maxSpillNode {
				return fmt.Errorf("trace: checkpoint: node %d out of range [0, %d]", e.Node, int64(maxSpillNode))
			}
			encodeEvent(rec[:], e)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ckptPrealloc caps the capacity ReadCheckpoint reserves from a count
// the input declares: the slices grow past it only as records actually
// arrive, so a corrupt count cannot make the reader allocate more than
// the input's own size warrants.
const ckptPrealloc = 1 << 10

// ReadCheckpoint decodes a TGC1 checkpoint. The input must end where the
// checkpoint does: trailing bytes are an error.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: checkpoint: truncated magic")
	}
	if m != ckptMagic {
		return nil, fmt.Errorf("trace: checkpoint: bad magic %q", m)
	}
	var hdr [8 * 5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: checkpoint: truncated header")
	}
	nodes := get64(hdr[32:])
	if nodes > 1<<20 {
		return nil, fmt.Errorf("trace: checkpoint: implausible node count %d", nodes)
	}
	c := &Checkpoint{
		Hash:    get64(hdr[0:]),
		Merged:  get64(hdr[8:]),
		LastAt:  int64(get64(hdr[16:])),
		Spilled: get64(hdr[24:]),
		Windows: make([][]Event, 0, min(nodes, ckptPrealloc)),
	}
	var cnt [8]byte
	var rec [spillRecSize]byte
	for i := uint64(0); i < nodes; i++ {
		if _, err := io.ReadFull(br, cnt[:]); err != nil {
			return nil, fmt.Errorf("trace: checkpoint: truncated window count (node %d)", i)
		}
		n := get64(cnt[:])
		if n > 1<<32 {
			return nil, fmt.Errorf("trace: checkpoint: implausible window length %d (node %d)", n, i)
		}
		evs := make([]Event, 0, min(n, ckptPrealloc))
		for j := uint64(0); j < n; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("trace: checkpoint: truncated record (node %d)", i)
			}
			evs = append(evs, decodeEvent(rec[:]))
		}
		c.Windows = append(c.Windows, evs)
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, fmt.Errorf("trace: checkpoint: trailing data after %d windows", nodes)
	case err != io.EOF:
		return nil, fmt.Errorf("trace: checkpoint: %w", err)
	}
	return c, nil
}
