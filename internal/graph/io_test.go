package graph

import (
	"bytes"
	"errors"
	"testing"
	"testing/iotest"
)

// FuzzReadJSON checks the scanner against the encoding/json walk it
// replaced (ReadJSONOracle): when ReadJSON accepts an input, the oracle
// accepts it too and both graphs write the same snapshot bytes; when the
// oracle accepts one, so does ReadJSON, except for a null id, edge end
// or attribute value, which ReadJSON rejects on purpose. Fed one byte at
// a time, ReadJSON must read every input as it reads it whole.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := chain(3).WriteJSON(&buf); err != nil {
		f.Fatalf("WriteJSON: %v", err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		want, werr := ReadJSONOracle(bytes.NewReader(data))
		switch {
		case err == nil && werr != nil:
			t.Fatalf("ReadJSON accepts what the oracle rejects: %v", werr)
		case err != nil && werr == nil:
			if errors.Is(err, errNull) {
				return // the documented difference
			}
			t.Fatalf("ReadJSON rejects what the oracle accepts: %v", err)
		}
		slow, serr := ReadJSON(iotest.OneByteReader(bytes.NewReader(data)))
		if (serr == nil) != (err == nil) {
			t.Fatalf("one byte at a time: %v, whole: %v", serr, err)
		}
		if err != nil {
			return
		}
		wantSnap := snapBytes(t, want, nil)
		if !bytes.Equal(snapBytes(t, got, nil), wantSnap) {
			t.Fatalf("ReadJSON's graph differs from the oracle's: %v vs %v", got, want)
		}
		if !bytes.Equal(snapBytes(t, slow, nil), wantSnap) {
			t.Fatalf("ReadJSON one byte at a time differs from the oracle: %v vs %v", slow, want)
		}
	})
}
