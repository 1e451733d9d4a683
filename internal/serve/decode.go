package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

const (
	// maxSmallBody bounds the bodies of the control endpoints (classify,
	// voltage, governor, ecc), whose largest legal body is a few hundred
	// bytes.
	maxSmallBody = 64 << 10
	// maxPixelText is the body budget per pixel of a /v1/infer "pixels"
	// array: a float64-precision decimal with sign, exponent, separator
	// and pretty-printer indentation fits; a shortest-form float32 takes
	// about a third of it. The base64 form needs under 6 bytes a pixel.
	maxPixelText = 32
	// bodySlack covers the keys, the seed and surrounding whitespace.
	bodySlack = 1 << 10
)

// inferBodyLimit is the largest /v1/infer body accepted for an input of
// want pixels.
func inferBodyLimit(want int) int64 { return int64(want)*maxPixelText + bodySlack }

// bodyBuf is the pooled working memory of one /v1/infer decode: the
// request body, read once, and the base64 form's decoded bytes. Nothing
// a decode returns aliases either.
type bodyBuf struct {
	body bytes.Buffer
	raw  []byte
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads a request body of at most limit bytes into buf. A body
// over the limit is an *http.MaxBytesError (statusForBody maps it to
// 413), refused from its Content-Length alone when that is declared.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) error {
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return err
}

// statusForBody maps a body read/decode error to its HTTP status.
func statusForBody(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readJSON decodes a control endpoint's body into v: at most
// maxSmallBody bytes holding one JSON value and nothing after it. On
// failure it writes the error response and reports false.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	var buf bytes.Buffer
	err := readBody(w, r, maxSmallBody, &buf)
	if err == nil {
		if err = json.Unmarshal(buf.Bytes(), v); err != nil {
			err = fmt.Errorf("bad JSON: %w", err)
		}
	}
	if err != nil {
		s.errorJSON(w, statusForBody(err), err.Error())
		return false
	}
	return true
}

// decode resolves the /v1/infer body held in bb.body into want pixels
// and the request's seed. The canonical bodies take the scanner; every
// other body — and every body the scanner would have to reject — is
// decoded by encoding/json from the same bytes, so which bodies are
// accepted, with which values and which error text, is that decoder's
// answer by construction.
func (bb *bodyBuf) decode(want int) ([]float32, int64, error) {
	if pixels, seed, ok := bb.scan(want); ok {
		return pixels, seed, nil
	}
	return decodeInferJSON(bb.body.Bytes(), want)
}

// decodeInferJSON is the reference /v1/infer decoder.
func decodeInferJSON(body []byte, want int) ([]float32, int64, error) {
	var req inferRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, fmt.Errorf("bad JSON: %w", err)
	}
	pixels := req.Pixels
	if req.ImageB64 != "" {
		if pixels != nil {
			return nil, 0, fmt.Errorf("provide pixels or image_b64, not both")
		}
		raw, err := base64.StdEncoding.DecodeString(req.ImageB64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad image_b64: %v", err)
		}
		if len(raw)%4 != 0 {
			return nil, 0, fmt.Errorf("image_b64 is %d bytes, not a float32 buffer", len(raw))
		}
		pixels = make([]float32, len(raw)/4)
		if i := leFloat32s(pixels, raw); i >= 0 {
			// A JSON number cannot spell these; raw bits can, and the
			// quantizer has no meaningful level for them.
			return nil, 0, fmt.Errorf("image_b64 pixel %d is not finite (%v)", i,
				math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}
	if len(pixels) != want {
		return nil, 0, fmt.Errorf("image has %d values, want %d", len(pixels), want)
	}
	return pixels, req.Seed, nil
}

// leFloat32s fills dst from the little-endian float32s in raw and
// reports the index of the first infinity or NaN, at which it stops, or
// -1 when every value is finite.
func leFloat32s(dst []float32, raw []byte) int {
	for i := range dst {
		u := binary.LittleEndian.Uint32(raw[4*i:])
		if u&0x7f800000 == 0x7f800000 {
			return i
		}
		dst[i] = math.Float32frombits(u)
	}
	return -1
}

// The keys the scanner knows, quotes included: an escaped, differently
// cased or unknown key is not a match and sends the body to
// encoding/json.
var (
	keyPixels = []byte(`"pixels"`)
	keyB64    = []byte(`"image_b64"`)
	keySeed   = []byte(`"seed"`)
)

// scan is the fast path: one pass over an object holding exactly one of
// "pixels" (want JSON numbers) or "image_b64" (want little-endian
// float32s in padded standard base64) and optionally "seed", in any
// order with any JSON whitespace. It only ever accepts. ok is false for
// anything else: string escapes, null, duplicate or unknown keys, both
// image forms, a wrong pixel count, a number outside the JSON grammar or
// the float32 range, a non-finite pixel, bytes after the object. Each
// pixel is read by cursor.pixel, whose result is strconv.ParseFloat at
// 32 bits — the call encoding/json makes — so pixels are bit-identical
// to the reference decoder's.
func (bb *bodyBuf) scan(want int) (pixels []float32, seed int64, ok bool) {
	c := cursor{b: bb.body.Bytes()}
	if !c.eat('{') {
		return nil, 0, false
	}
	haveSeed := false
	for n := 0; n == 0 || c.eat(','); n++ {
		c.ws()
		switch rest := c.b[c.i:]; {
		case bytes.HasPrefix(rest, keyPixels) && pixels == nil:
			c.i += len(keyPixels)
			if !c.eat(':') || !c.eat('[') {
				return nil, 0, false
			}
			pixels = make([]float32, want)
			for k := range pixels {
				if k > 0 && !c.eat(',') {
					return nil, 0, false
				}
				c.ws()
				f, ok := c.pixel()
				if !ok {
					return nil, 0, false
				}
				pixels[k] = f
			}
			if !c.eat(']') { // also where a value too many is refused
				return nil, 0, false
			}
		case bytes.HasPrefix(rest, keyB64) && pixels == nil:
			c.i += len(keyB64)
			if !c.eat(':') || !c.eat('"') {
				return nil, 0, false
			}
			end := bytes.IndexByte(c.b[c.i:], '"')
			if end != base64.StdEncoding.EncodedLen(4*want) {
				return nil, 0, false
			}
			text := c.b[c.i : c.i+end]
			c.i += end + 1
			if bytes.IndexByte(text, '\\') >= 0 {
				return nil, 0, false
			}
			if need := base64.StdEncoding.DecodedLen(end); cap(bb.raw) < need {
				bb.raw = make([]byte, need)
			}
			// Decode skips \r and \n, which JSON forbids inside a string;
			// text of exactly the encoded length that contains any comes
			// out short and is refused here.
			raw := bb.raw[:cap(bb.raw)]
			if got, err := base64.StdEncoding.Decode(raw, text); err != nil || got != 4*want {
				return nil, 0, false
			}
			pixels = make([]float32, want)
			if leFloat32s(pixels, raw) >= 0 {
				return nil, 0, false
			}
		case bytes.HasPrefix(rest, keySeed) && !haveSeed:
			c.i += len(keySeed)
			if !c.eat(':') {
				return nil, 0, false
			}
			c.ws()
			tok, _ := c.number()
			if tok == nil {
				return nil, 0, false
			}
			v, err := strconv.ParseInt(string(tok), 10, 64)
			if err != nil {
				return nil, 0, false
			}
			seed, haveSeed = v, true
		default:
			return nil, 0, false
		}
	}
	if pixels == nil || !c.eat('}') {
		return nil, 0, false
	}
	c.ws()
	return pixels, seed, c.i == len(c.b)
}

// cursor walks a JSON text.
type cursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes ch if it is next.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// decimal is a JSON number's value as mant×10^exp10, read while its
// grammar is checked. many marks more than 19 mantissa digits, leading
// zeros included: mant may have wrapped.
type decimal struct {
	mant  uint64
	exp10 int
	neg   bool
	many  bool
}

// number consumes the longest prefix that is a number in the JSON
// grammar — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and returns
// it with its decimal value, or nil if there is none. strconv alone would
// also take "+1", ".5", "1_0", "0x1p-2" and "Inf". Of an invalid literal
// the valid prefix is taken ("0" of "01", "1" of "1." and "1e"); the
// caller finds the leftover where a delimiter belongs.
func (c *cursor) number() ([]byte, decimal) {
	b, i := c.b, c.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	from := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
	default:
		return nil, decimal{}
	}
	nd, exp10 := i-from, 0
	if i+1 < len(b) && b[i] == '.' && b[i+1]-'0' < 10 {
		i++
		from = i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		nd += i - from
		exp10 = from - i
	}
	if i+1 < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j, sign := i+1, 1
		if b[j] == '+' || b[j] == '-' {
			if b[j] == '-' {
				sign = -1
			}
			j++
		}
		if j < len(b) && b[j]-'0' < 10 {
			e := 0
			for ; j < len(b) && b[j]-'0' < 10; j++ {
				if e < 1e4 { // far past any float32, and no overflow
					e = e*10 + int(b[j]-'0')
				}
			}
			exp10 += sign * e
			i = j
		}
	}
	tok := b[c.i:i]
	c.i = i
	return tok, decimal{mant: mant, exp10: exp10, neg: neg, many: nd > 19}
}

// pixel consumes the JSON number at the cursor and returns its value as
// strconv.ParseFloat(tok, 32) does; ok is false, and nothing is consumed,
// when there is no number or ParseFloat refuses it (out of float32
// range). The decimal's fast path answers most pixels; strconv gets the
// same token bytes for the rest.
func (c *cursor) pixel() (float32, bool) {
	from := c.i
	tok, d := c.number()
	if tok == nil {
		return 0, false
	}
	if f, ok := d.float32(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		c.i = from
		return 0, false
	}
	return float32(f), true
}

// float32 is Clinger's fast path. A mantissa below 2^53 and |exp10| <= 22
// are both exact float64s, so one multiply or divide gives the correctly
// rounded float64 of the decimal, and its magnitude lies in
// [1e-22, 2^53·1e22], inside the normal float32 range. float32() of that
// float64 is then the correctly rounded float32 as well, unless the
// float64 is itself a float32 rounding midpoint: every float32 midpoint is
// a float64, so one lying strictly between the decimal and its float64
// rounding would be a nearer float64. ok is false for a midpoint — its 29
// low fraction bits read 1 then 28 zeros — and for any other decimal:
// zero, more than 19 digits, a mantissa of 2^53 or more, |exp10| > 22.
func (d decimal) float32() (float32, bool) {
	if d.many || d.mant == 0 || d.mant >= 1<<53 || d.exp10 < -22 || d.exp10 > 22 {
		return 0, false
	}
	f := float64(d.mant)
	if d.exp10 < 0 {
		f /= pow10[-d.exp10]
	} else {
		f *= pow10[d.exp10]
	}
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if d.neg {
		f = -f
	}
	return float32(f), true
}

// pow10 holds the powers of ten that are exact float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
