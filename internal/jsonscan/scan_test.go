package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// TestStrDecodesAsEncodingJSON: every string reads as encoding/json reads
// it — escapes, surrogate pairs whole, half or mismatched, invalid UTF-8
// — from bytes in memory and one byte at a time.
func TestStrDecodesAsEncodingJSON(t *testing.T) {
	pieces := []string{
		"a", "Z", " ", "é", "😀", "\xff", "\xc3", "\xed\xa0\x80", "\xef\xbf\xbd",
		`\n`, `\t`, `\"`, `\\`, `\/`, `\b`, `\f`, `\r`, `\u0000`, `<`, `é`, `�`,
		`😀`, `\ud800`, `\udc00`, `\ud800\ud800`, `􏿿`, `\ud83d`, `\ud83dx`,
	}
	rng := rand.New(rand.NewSource(1))
	docs := []string{`""`, `"plain"`}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		b.WriteByte('"')
		for n := rng.Intn(6); n >= 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		b.WriteByte('"')
		docs = append(docs, b.String())
	}
	var mem Reader
	for _, doc := range docs {
		var want string
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("encoding/json rejects %q: %v", doc, err)
		}
		mem.Reset([]byte(doc))
		for _, r := range []*Reader{&mem, NewReaderSize(iotest.OneByteReader(strings.NewReader(doc)), 1)} {
			got, err := r.Str()
			if err != nil {
				t.Fatalf("Str(%q): %v", doc, err)
			}
			if string(got) != want {
				t.Fatalf("Str(%q) = %q, want %q", doc, got, want)
			}
		}
	}
}

// TestSkipChecksGrammar: Skip accepts what encoding/json accepts and
// rejects what it rejects, nesting limit included, without modifying
// bytes it reads in memory. Each document is read as an array's element,
// where what follows a value is checked.
func TestSkipChecksGrammar(t *testing.T) {
	deep := strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1)
	for _, doc := range []string{
		`0`, `-0.5e+3`, `true`, `null`, `"xA"`, `{}`, `[]`, `{"a":[1,{"b":null}],"c":"d"}`, deep,
		`01`, `1.`, `-`, `1e`, `tru`, `"\x"`, `"a` + "\x01" + `"`, `{"a"}`, `{"a":1,}`, `[1,]`, `[1 2]`, `{1:2}`,
		"[" + deep + "]", `"\u12"`, ``, ` `,
	} {
		doc = "[" + doc + "]"
		want := json.Valid([]byte(doc))
		in := []byte(doc)
		var r Reader
		r.Reset(in)
		err := r.Skip(0)
		if (err == nil) != want {
			t.Errorf("Skip(%.40q) = %v, encoding/json valid = %v", doc, err, want)
		}
		if string(in) != doc {
			t.Errorf("Skip(%.40q) modified its input", doc)
		}
		var se *Error
		if err != nil && !errors.As(err, &se) {
			t.Errorf("Skip(%.40q) = %T, want *Error", doc, err)
		}
	}
}

// TestFieldsAsEncodingJSON: Int, String, Bool, Struct and List read
// values as encoding/json decodes them into a struct's fields — null
// leaves a field as it was, and a value of another kind is a TypeError
// past which reading goes on.
func TestFieldsAsEncodingJSON(t *testing.T) {
	type fields struct {
		I int
		S string
		B bool
		L []int
	}
	for _, doc := range []string{
		`{"i":7,"s":"x","b":true,"l":[1,2]}`,
		`{"I":-3,"S":"é","B":false,"L":null}`,
		`{"i":null,"s":null,"b":null}`,
		`{"i":1.5}`, `{"i":1e2}`, `{"i":"1"}`, `{"i":9223372036854775808}`, `{"s":1}`, `{"b":0}`, `{"l":{}}`,
		`{"i":[],"s":"late"}`, `{"ſ":"folded"}`, `{"x":{"y":[1]},"i":2}`, `null`, `[]`, `{"i":2,"i":3}`,
	} {
		var want fields
		want.I, want.S = 99, "keep"
		werr := json.Unmarshal([]byte(doc), &want)

		got := fields{I: 99, S: "keep"}
		var r Reader
		r.Reset([]byte(doc))
		var types Sticky
		err := r.Struct(func(key []byte) error {
			switch {
			case FieldIs(key, "i"):
				return types.Keep(r.Int(&got.I))
			case FieldIs(key, "s"):
				return types.Keep(r.String(&got.S))
			case FieldIs(key, "b"):
				return types.Keep(r.Bool(&got.B))
			case FieldIs(key, "l"):
				got.L = nil
				return types.Keep(r.List(func(int) error {
					got.L = append(got.L, 0)
					return types.Keep(r.Int(&got.L[len(got.L)-1]))
				}))
			}
			return r.Skip(r.Depth())
		})
		if err = types.Keep(err); err == nil {
			err = types.Err
		}
		if (err == nil) != (werr == nil) {
			t.Errorf("%s: error %v, encoding/json error %v", doc, err, werr)
			continue
		}
		if err != nil {
			var te *TypeError
			if !errors.As(err, &te) {
				t.Errorf("%s: error %T, want *TypeError", doc, err)
			}
			continue
		}
		if got.I != want.I || got.S != want.S || got.B != want.B || len(got.L) != len(want.L) {
			t.Errorf("%s: read %+v, encoding/json %+v", doc, got, want)
		}
	}
}

// TestReaderErrors: bad input is an *Error at its offset; a failing
// reader's error comes through, wrapped.
func TestReaderErrors(t *testing.T) {
	var r Reader
	r.Reset([]byte(`{"a": tru}`))
	err := r.Skip(0)
	var se *Error
	if !errors.As(err, &se) || se.Offset != 6 || se.Err != nil {
		t.Errorf("Skip = %v, want an *Error at byte 6", err)
	}
	boom := errors.New("boom")
	err = NewReader(io.MultiReader(strings.NewReader(`{"a":`), iotest.ErrReader(boom))).Skip(0)
	if !errors.Is(err, boom) || !errors.As(err, &se) {
		t.Errorf("Skip over a failing reader = %v, want the read error", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("read: boom")) {
		t.Errorf("read error reads %q", err)
	}
}
