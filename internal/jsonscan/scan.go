// Package jsonscan is the module's one JSON scanner: a reflection-free
// reader of JSON text that its clients — graph files, query and exemplar
// documents, wqe-serve's questions — drive key by key. It checks JSON's
// grammar as encoding/json's scanner does, decodes strings under
// encoding/json's rules (escapes, surrogate pairs, each byte of invalid
// UTF-8 as U+FFFD), and leaves what a value means to the client.
//
// A Reader reads from an io.Reader in refills, or from bytes already in
// memory, which it never modifies. A slice a method returns is valid
// until the next call that reads.
package jsonscan

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit, counted over what it
// scanned as one value.
const maxDepth = 10000

// bufSize is the refill size NewReader uses: what graph files want.
const bufSize = 64 << 10

// Reader scans JSON text. buf[pos:] holds input read but not yet
// consumed.
type Reader struct {
	r     io.Reader // nil when reading bytes in memory
	buf   []byte
	pos   int
	off   int64 // input offset of buf[0]
	rerr  error // why r stopped: io.EOF at the end of input
	depth int   // objects and arrays open around the reader

	key []byte // a key read before a fill
	str []byte // the value of the last string that held an escape
}

// NewReader returns a Reader of r that reads it in bufSize refills.
func NewReader(r io.Reader) *Reader { return NewReaderSize(r, bufSize) }

// NewReaderSize returns a Reader of r whose buffer starts at size bytes;
// it doubles when one token does not fit.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: r, buf: make([]byte, 0, max(size, 16))}
}

// Reset makes d read b, keeping the scratch space it has grown unless a
// long string grew it past scratchKeep.
func (d *Reader) Reset(b []byte) {
	key, str := d.key[:0], d.str[:0]
	if cap(key) > scratchKeep {
		key = nil
	}
	if cap(str) > scratchKeep {
		str = nil
	}
	*d = Reader{buf: b, rerr: io.EOF, key: key, str: str}
}

// scratchKeep is the most scratch space Reset keeps.
const scratchKeep = 64 << 10

// Error is what a Reader reports: bad input at a byte offset, or, when
// Err is set, the read error that cut the input short.
type Error struct {
	Msg    string
	Offset int64
	Err    error
}

func (e *Error) Error() string {
	if e.Err != nil {
		return "read: " + e.Err.Error()
	}
	return e.Msg + " at byte " + strconv.FormatInt(e.Offset, 10)
}

func (e *Error) Unwrap() error { return e.Err }

// TypeError is well-formed JSON of a kind the field it is read into
// cannot hold, which the reader has consumed: encoding/json goes on past
// one and reports the first at the end (see Sticky).
type TypeError struct {
	Msg    string
	Offset int64
}

func (e *TypeError) Error() string {
	return e.Msg + " at byte " + strconv.FormatInt(e.Offset, 10)
}

// Sticky keeps the first TypeError it is handed, as encoding/json does.
type Sticky struct{ Err error }

// Keep returns err unless it is a *TypeError, which it records if it is
// the first and swallows, so that decoding goes on. A TypeError comes
// straight from a Reader method, never wrapped: a type assertion finds
// it without the allocation errors.As would cost per field.
func (s *Sticky) Keep(err error) error {
	if te, ok := err.(*TypeError); ok {
		if s.Err == nil {
			s.Err = te
		}
		return nil
	}
	return err
}

// Errorf reports bad input at the current offset, or the read error that
// cut the input short.
func (d *Reader) Errorf(format string, args ...any) error {
	if d.rerr != nil && d.rerr != io.EOF {
		return &Error{Err: d.rerr}
	}
	return &Error{Msg: fmt.Sprintf(format, args...), Offset: d.off + int64(d.pos)}
}

// Depth returns the number of objects and arrays open around the reader,
// as Object and Array count them: what to hand Skip inside a value read
// from the start of what encoding/json would scan as one.
func (d *Reader) Depth() int { return d.depth }

// Object reads an object, the reader at its '{', calling field with each
// key, unescaped, once the reader is at the key's value. field must
// consume the value, and read the key before it does: the key may lie in
// the reader's buffers.
func (d *Reader) Object(field func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	c, err := d.Next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	d.depth++
	for {
		if c != '"' {
			err = d.Errorf("expected a string key, found %q", c)
			break
		}
		var key []byte
		if key, err = d.Str(); err != nil {
			break
		}
		if d.pos < len(d.buf) && d.buf[d.pos] == ':' {
			d.pos++ // no fill since the key was read: it is still valid
		} else {
			d.key = append(d.key[:0], key...)
			if err = d.expect(':'); err != nil {
				break
			}
			key = d.key
		}
		if err = field(key); err != nil {
			break
		}
		if c, err = d.Next(); err != nil {
			break
		}
		d.pos++
		if c == '}' {
			d.depth--
			return nil
		}
		if c != ',' {
			d.pos--
			err = d.Errorf("expected ',' or '}', found %q", c)
			break
		}
		if c, err = d.Next(); err != nil {
			break
		}
	}
	d.depth--
	return err
}

// Array reads an array, the reader at its '[', calling elem with the
// index of each element once the reader is at it; elem must consume it.
func (d *Reader) Array(elem func(i int) error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	c, err := d.Next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		return nil
	}
	d.depth++
	for i := 0; err == nil; i++ {
		if err = elem(i); err != nil {
			break
		}
		if c, err = d.Next(); err != nil {
			break
		}
		d.pos++
		switch c {
		case ']':
			d.depth--
			return nil
		case ',':
		default:
			d.pos--
			err = d.Errorf("expected ',' or ']', found %q", c)
		}
	}
	d.depth--
	return err
}

// Skip consumes one value of any kind, checking it as encoding/json's
// scanner would; depth is the number of containers already open around
// it in what that scanner would read as one value.
func (d *Reader) Skip(depth int) error {
	c, err := d.Next()
	if err != nil {
		return err
	}
	switch c {
	case '{', '[':
		if depth++; depth > maxDepth {
			return d.Errorf("exceeded max depth")
		}
		if c == '{' {
			return d.Object(func([]byte) error { return d.Skip(depth) })
		}
		return d.Array(func(int) error { return d.Skip(depth) })
	case '"':
		_, _, err = d.token()
		return err
	case 't':
		return d.Lit("true")
	case 'f':
		return d.Lit("false")
	case 'n':
		return d.Lit("null")
	}
	_, err = d.Num()
	return err
}

// skipAs skips a value of a kind a field of kind want cannot hold and
// reports it as a TypeError.
func (d *Reader) skipAs(c byte, want string) error {
	at := d.off + int64(d.pos)
	if err := d.Skip(d.depth); err != nil {
		return err
	}
	return &TypeError{Msg: fmt.Sprintf("cannot read %s into %s", kindOf(c), want), Offset: at}
}

func kindOf(c byte) string {
	switch c {
	case '{':
		return "an object"
	case '[':
		return "an array"
	case '"':
		return "a string"
	case 't', 'f':
		return "a boolean"
	}
	return "a number"
}

// Struct reads a value as encoding/json decodes one into a struct: an
// object calls field with each key (see Object), null calls nothing, and
// any other value is a TypeError.
func (d *Reader) Struct(field func(key []byte) error) error {
	c, err := d.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.Lit("null")
	case c != '{':
		return d.skipAs(c, "an object")
	}
	return d.Object(field)
}

// List reads a value as encoding/json decodes one into a slice: an array
// calls elem with each element (see Array), null calls nothing, and any
// other value is a TypeError.
func (d *Reader) List(elem func(i int) error) error {
	c, err := d.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.Lit("null")
	case c != '[':
		return d.skipAs(c, "an array")
	}
	return d.Array(elem)
}

// Int reads a value into *dst as encoding/json decodes one into an int
// field: null leaves *dst as it was, a number must be an integer that
// fits 64 bits (no fraction, no exponent), and any other value is a
// TypeError.
func (d *Reader) Int(dst *int) error {
	c, err := d.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.Lit("null")
	case c != '-' && !isDigit(int(c)):
		return d.skipAs(c, "an int")
	}
	at := d.off + int64(d.pos)
	tok, err := d.Num()
	if err != nil {
		return err
	}
	v, perr := strconv.ParseInt(string(tok), 10, 64)
	if perr != nil {
		return &TypeError{Msg: fmt.Sprintf("cannot read the number %s into an int", tok), Offset: at}
	}
	*dst = int(v)
	return nil
}

// String reads a value into *dst as encoding/json decodes one into a
// string field: null leaves *dst as it was, and anything but a string is
// a TypeError.
func (d *Reader) String(dst *string) error {
	c, err := d.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.Lit("null")
	case c != '"':
		return d.skipAs(c, "a string")
	}
	s, err := d.Str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// Bool reads a value into *dst as encoding/json decodes one into a bool
// field: null leaves *dst as it was, and anything but true or false is a
// TypeError.
func (d *Reader) Bool(dst *bool) error {
	c, err := d.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.Lit("null")
	case c == 't':
		*dst = true
		return d.Lit("true")
	case c == 'f':
		*dst = false
		return d.Lit("false")
	}
	return d.skipAs(c, "a bool")
}

// Next skips whitespace and returns the byte after it, unconsumed.
func (d *Reader) Next() (byte, error) {
	for {
		buf, i := d.buf, d.pos
		for ; i < len(buf); i++ {
			if c := buf[i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
				d.pos = i
				return c, nil
			}
		}
		d.pos = i
		if !d.fill() {
			return 0, d.Errorf("unexpected end of input")
		}
	}
}

// expect consumes the byte want, after whitespace.
func (d *Reader) expect(want byte) error {
	c, err := d.Next()
	if err != nil {
		return err
	}
	if c != want {
		return d.Errorf("expected %q, found %q", want, c)
	}
	d.pos++
	return nil
}

// Lit consumes the literal word (true, false or null).
func (d *Reader) Lit(word string) error {
	if !d.avail(len(word)) {
		return d.Errorf("unexpected end of input")
	}
	if string(d.buf[d.pos:d.pos+len(word)]) != word {
		return d.Errorf("invalid literal, expected %s", word)
	}
	d.pos += len(word)
	return nil
}

// Str consumes a string and returns its value: its content itself when
// that needs no decoding, else what encoding/json decodes it to.
func (d *Reader) Str() ([]byte, error) {
	tok, plain, err := d.token()
	if err != nil {
		return nil, err
	}
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	d.str = unquote(d.str[:0], tok[1:len(tok)-1])
	return d.str, nil
}

// token consumes a string, checking it as encoding/json's scanner does,
// and returns it with its quotes. plain reports that it holds no
// backslash and no byte >= 0x80, so that its content is its value.
func (d *Reader) token() (tok []byte, plain bool, err error) {
	plain = true
	n := 1 // past the opening quote
	for {
		b := d.buf[d.pos:]
		for n < len(b) {
			c := b[n]
			n++
			if plainByte[c] {
				continue
			}
			switch {
			case c == '"':
				d.pos += n
				return b[:n], plain, nil
			case c < 0x20:
				return nil, false, d.Errorf("invalid character %q in string", c)
			case c >= 0x80:
				plain = false
				continue
			}
			// A backslash: one of "\/bfnrt, or u and four hex digits.
			plain = false
			if !d.avail(n + 1) {
				return nil, false, d.Errorf("unexpected end of input")
			}
			b = d.buf[d.pos:]
			switch b[n] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				n++
				continue
			case 'u':
				if !d.avail(n + 5) {
					return nil, false, d.Errorf("unexpected end of input")
				}
				b = d.buf[d.pos:]
				for _, h := range b[n+1 : n+5] {
					if hexVal(h) < 0 {
						return nil, false, d.Errorf("invalid \\u escape in string")
					}
				}
				n += 5
				continue
			}
			return nil, false, d.Errorf("invalid escape \\%c in string", b[n])
		}
		if !d.fill() {
			return nil, false, d.Errorf("unexpected end of input")
		}
	}
}

// plainByte marks the bytes that stand for themselves inside a string.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote appends to dst the value of the string content s, which token
// has checked: escapes decoded, a \u escape of half a surrogate pair that
// has no other half after it as U+FFFD, and each byte of invalid UTF-8
// as U+FFFD — encoding/json's unquoteBytes, rule for rule.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := getu4(s[i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							dst = utf8.AppendRune(dst, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, r)
			} else {
				dst = append(dst, s[i:i+size]...)
			}
			i += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape s starts with, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexVal(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// Num consumes a number, checking JSON's grammar, and returns its text.
func (d *Reader) Num() ([]byte, error) {
	for {
		n, past := numLen(d.buf[d.pos:])
		if past && d.fill() {
			continue // the number may go on: scan it again, whole
		}
		if n < 0 {
			return nil, d.Errorf("invalid number")
		}
		tok := d.buf[d.pos : d.pos+n]
		d.pos += n
		return tok, nil
	}
}

// numLen returns the length of the JSON number b starts with, or -1 if
// it starts with none; past reports that it had to look beyond b.
func numLen(b []byte) (n int, past bool) {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		past = true
		return -1
	}
	if at(n) == '-' {
		n++
	}
	switch c := at(n); {
	case c == '0':
		n++
	case '1' <= c && c <= '9':
		for n++; isDigit(at(n)); n++ {
		}
	default:
		return -1, past
	}
	if at(n) == '.' {
		if n++; !isDigit(at(n)) {
			return -1, past
		}
		for n++; isDigit(at(n)); n++ {
		}
	}
	if c := at(n); c == 'e' || c == 'E' {
		if n++; at(n) == '+' || at(n) == '-' {
			n++
		}
		if !isDigit(at(n)) {
			return -1, past
		}
		for n++; isDigit(at(n)); n++ {
		}
	}
	return n, past
}

// IsNumStart reports whether c can begin a JSON number.
func IsNumStart(c byte) bool { return c == '-' || isDigit(int(c)) }

func isDigit(c int) bool { return '0' <= c && c <= '9' }

// FieldIs reports whether key names the field name as encoding/json
// matches struct fields: equal under bytes.EqualFold.
func FieldIs(key []byte, name string) bool {
	if len(key) == len(name) {
		for i, c := range key {
			if c != name[i] && (c|0x20 != name[i] || name[i] < 'a' || name[i] > 'z') {
				return false
			}
		}
		return true
	}
	// Only a longer key, holding a non-ASCII rune, can fold to an ASCII
	// name some other way ("ſ" to "s", "K" to "k").
	if len(key) < len(name) {
		return false
	}
	for _, c := range key {
		if c >= 0x80 {
			return bytes.EqualFold(key, []byte(name))
		}
	}
	return false
}

// avail makes at least n unconsumed bytes available, if the input has
// them.
func (d *Reader) avail(n int) bool {
	for len(d.buf)-d.pos < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

// fill reads more input after the unconsumed bytes, first moving them
// to the front of buf and doubling buf if they fill it. It reports
// whether any byte was added; when none was, rerr says why.
func (d *Reader) fill() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.off += int64(d.pos)
		d.buf = d.buf[:copy(d.buf, d.buf[d.pos:])]
		d.pos = 0
	}
	if len(d.buf) == cap(d.buf) {
		d.buf = append(make([]byte, 0, 2*cap(d.buf)), d.buf...)
	}
	for range 100 { // bufio's bound on reads that return nothing
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}
