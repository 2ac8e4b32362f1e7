package graph

import (
	"errors"
	"testing"
)

var errDiskFull = errors.New("disk full")

// failAfter accepts n bytes, then fails every write, like a disk that
// fills up partway through a file.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errDiskFull
}

// TestWriteSnapshotReportsWriterErrors cuts the writer off after k
// bytes, for k in the header, the body, the checksum and the bytes only
// the final Flush hands over, and requires WriteSnapshot to report the
// failure every time: a snapshot that silently stops short is a corrupt
// file its writer called good. The small graph fits the 1 MiB write
// buffer, so every failure surfaces in the final Flush; the large aux
// payload makes the buffer spill mid-stream, so header and body
// failures surface before it.
func TestWriteSnapshotReportsWriterErrors(t *testing.T) {
	g := snapGraph(t)
	big := make([]byte, 5<<19) // 2.5 MiB
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, c := range []struct {
		name string
		aux  []byte
	}{{"small", nil}, {"spilling", big}} {
		total := len(snapBytes(t, g, c.aux))
		cuts := []struct {
			where string
			k     int
		}{
			{"header-start", 0},
			{"header-mid", snapHeaderLen / 2},
			{"body", total / 2},
			{"checksum", total - 5},
			{"final-flush", total - 1},
		}
		for _, cut := range cuts {
			t.Run(c.name+"/"+cut.where, func(t *testing.T) {
				err := g.WriteSnapshot(&failAfter{n: cut.k}, c.aux)
				if !errors.Is(err, errDiskFull) {
					t.Fatalf("writer failing after %d of %d bytes: WriteSnapshot returned %v, want %v",
						cut.k, total, err, errDiskFull)
				}
			})
		}
		if err := g.WriteSnapshot(&failAfter{n: total}, c.aux); err != nil {
			t.Errorf("%s: writer with room for all %d bytes: %v", c.name, total, err)
		}
	}
}
