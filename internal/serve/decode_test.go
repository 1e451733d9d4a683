package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// pixelsBody and b64Body spell pixels the way the benchmark's clients
// do: shortest-form float32 decimals, and padded standard base64 of the
// little-endian bits.
func pixelsBody(pixels []float32) []byte {
	b := []byte(`{"pixels":[`)
	for i, v := range pixels {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

func b64Body(pixels []float32) []byte {
	return []byte(`{"image_b64":"` + b64Image(pixels) + `"}`)
}

// decodeBoth runs one body through the served decoder and the reference
// and fails on any difference: accept/reject, error text, seed, or a
// single pixel bit.
func decodeBoth(t *testing.T, body []byte, want int) ([]float32, error) {
	t.Helper()
	var bb bodyBuf
	bb.body.Write(body)
	got, gotSeed, gotErr := bb.decode(want)
	ref, refSeed, refErr := decodeInferJSON(body, want)
	if (gotErr == nil) != (refErr == nil) || gotErr != nil && gotErr.Error() != refErr.Error() {
		t.Fatalf("body %q: decoder says %v, encoding/json says %v", body, gotErr, refErr)
	}
	if gotSeed != refSeed {
		t.Fatalf("body %q: seed %d, encoding/json has %d", body, gotSeed, refSeed)
	}
	if len(got) != len(ref) {
		t.Fatalf("body %q: %d pixels, encoding/json has %d", body, len(got), len(ref))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("body %q: pixel %d = %x, encoding/json has %x", body, i,
				math.Float32bits(got[i]), math.Float32bits(ref[i]))
		}
	}
	return got, gotErr
}

// inferBodySeeds are bodies for two-pixel images (the last group for
// other sizes) around every edge of the scanner's grammar.
var inferBodySeeds = []string{
	// Canonical, and what the scanner must take itself.
	`{"pixels":[1,2]}`,
	`{"pixels":[1e-05,-2.5E+3],"seed":7}`,
	` { "seed" : -12 , "pixels" : [ -0 , 0.0 ] } `,
	"{\n\t\"pixels\": [\n\t\t1.17549435e-38,\n\t\t3.4028235e38\n\t]\n}\r\n",
	`{"pixels":[1e-50,123456789012345678901234567890e-25]}`,
	// float32 midpoints, exact and one float64 away; long mantissas.
	`{"pixels":[16777217,1.000000536441803]}`,
	`{"pixels":[1.000000059604644775390625,-5.000002202146923e+25]}`,
	`{"pixels":[12345678901234567890,0.00000000000000000000123456789012345678901]}`,
	`{"image_b64":"AACAPwAAAMA="}`,
	`{"seed":9,"image_b64":"AACAPwAAAMA="}`,
	// Numbers strconv would take and JSON does not, and the reverse.
	`{"pixels":[01,2]}`, `{"pixels":[+1,2]}`, `{"pixels":[.5,2]}`, `{"pixels":[1.,2]}`,
	`{"pixels":[1_0,2]}`, `{"pixels":[Inf,2]}`, `{"pixels":[NaN,2]}`, `{"pixels":[0x1p-2,2]}`,
	`{"pixels":[1e,2]}`, `{"pixels":[-,2]}`, `{"pixels":[1e39,2]}`, `{"pixels":[-1e39,2]}`,
	`{"pixels":[1,2],"seed":1.0}`, `{"pixels":[1,2],"seed":1e3}`, `{"pixels":[1,2],"seed":-0}`,
	`{"pixels":[1,2],"seed":9223372036854775808}`, `{"pixels":[1,2],"seed":"7"}`,
	// Shapes the scanner refuses and encoding/json decides.
	`{"pixels":[1]}`, `{"pixels":[1,2,3]}`, `{"pixels":[]}`, `{"pixels":null}`, `{}`, ``, `null`, `[1,2]`,
	`{"pixels":[1,2],"pixels":[3,4]}`, `{"pixels":[1,2],"image_b64":"AACAPwAAAMA="}`,
	`{"pixels":null,"image_b64":"AACAPwAAAMA="}`, `{"PIXELS":[1,2]}`, `{"pi\u0078els":[1,2]}`,
	`{"pixels":[1,2],"extra":true}`, `{"pixels":[1,2],}`, `{"pixels":[1,2,]}`, `{"pixels":[1 2]}`,
	`{"pixels":[1,2]} x`, `{"pixels":[1,2]}{}`, `{"pixels":[1,2]`, `{"pixels":[1,null]}`,
	`{"seed":3}`, `{"seed":3,"seed":4,"pixels":[1,2]}`,
	// base64: escapes, line breaks, padding, alphabet, length, non-finite bits.
	`{"image_b64":"AACAPwAA\/MA="}`, `{"image_b64":"AACAPwA\/MA="}`,
	"{\"image_b64\":\"AACAPw\nAAAMA=\"}", "{\"image_b64\":\"AACAPwAAAMA=\r\n\"}",
	`{"image_b64":"AACAPwAAAMA"}`, `{"image_b64":"AACAPwAAAMA=="}`, `{"image_b64":"AACAPwAA-MA="}`,
	`{"image_b64":"AACAPwAAAA=="}`, `{"image_b64":"AACAPwAAAMAAAIA/"}`, `{"image_b64":""}`,
	`{"image_b64":"AACAPwAAgH8="}`, `{"image_b64":"AACAPwAAwP8="}`, `{"image_b64":"AACAPwAAgP8="}`,
	`{"image_b64":"AACAPwAAAMA=","image_b64":"AACAPwAAAMA="}`, `{"image_b64":12}`,
}

// Every seed body decodes exactly as encoding/json decodes it, and the
// canonical ones are taken by the scanner, not the fallback.
func TestInferBodySeedsMatchReference(t *testing.T) {
	for _, body := range inferBodySeeds {
		decodeBoth(t, []byte(body), 2)
	}
	for i, body := range inferBodySeeds[:10] {
		var bb bodyBuf
		bb.body.WriteString(body)
		if _, _, ok := bb.scan(2); !ok {
			t.Errorf("canonical body %d %q fell back to encoding/json", i, body)
		}
	}
	px, err := decodeBoth(t, []byte(inferBodySeeds[8]), 2)
	if err != nil || px[0] != 1 || px[1] != -2 {
		t.Errorf("base64 body decoded to %v, %v; want [1 -2]", px, err)
	}
}

// The bodies real clients send — every float32 class, both encodings —
// come back bit-identical, through the scanner.
func TestInferBodyBitIdentical(t *testing.T) {
	pixels := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -0.3, 1e-5, 123456.789,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
		1.17549435e-38, 0.99999994, 16777216, 3.1415927}
	for _, body := range [][]byte{pixelsBody(pixels), b64Body(pixels)} {
		var bb bodyBuf
		bb.body.Write(body)
		if _, _, ok := bb.scan(len(pixels)); !ok {
			t.Errorf("client body %.40q... fell back to encoding/json", body)
		}
		got, err := decodeBoth(t, body, len(pixels))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range pixels {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Errorf("pixel %d: sent %x, decoded %x", i, math.Float32bits(v), math.Float32bits(got[i]))
			}
		}
	}
}

// The fast path's only allocation is the tensor's exact-size pixel
// slice, for either encoding of a full-size image.
func TestInferDecodeAllocs(t *testing.T) {
	const want = 3 * 32 * 32
	pixels := make([]float32, want)
	for i := range pixels {
		pixels[i] = float32(i%251)/17 - 7
	}
	for name, body := range map[string][]byte{"json": pixelsBody(pixels), "b64": b64Body(pixels)} {
		var bb bodyBuf
		bb.body.Write(body)
		if _, _, err := bb.decode(want); err != nil { // also sizes bb.raw
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, ok := bb.scan(want); !ok {
				t.Fatal("fell back")
			}
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocs per decode, want 1", name, allocs)
		}
	}
}

// FuzzInferBody: for any bytes and any of four image sizes (so every
// base64 padding length occurs), the served decoder and encoding/json
// agree on accept/reject, on the error text, on seed and on every pixel
// bit.
func FuzzInferBody(f *testing.F) {
	for _, body := range inferBodySeeds {
		f.Add([]byte(body), uint8(1))
	}
	f.Add([]byte(`{"pixels":[7]}`), uint8(0))
	f.Add([]byte(`{"image_b64":"AADgQA=="}`), uint8(0))
	f.Add([]byte(`{"image_b64":"AACAPwAAAMAAAIA/"}`), uint8(2))
	f.Add([]byte(`{"image_b64":"AACAPwAAAMAAAIA/AABAQA=="}`), uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, size uint8) {
		decodeBoth(t, body, 1+int(size)%4)
	})
}

// A full-size body one value short or long, or with a line break inside
// its base64, is refused like any other malformed image.
func TestInferBodyWrongSizes(t *testing.T) {
	const want = 48
	pixels := make([]float32, want+1)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"one short", pixelsBody(pixels[:want-1])},
		{"one long", pixelsBody(pixels)},
		{"b64 one short", b64Body(pixels[:want-1])},
		{"b64 one long", b64Body(pixels)},
		{"b64 line breaks", bytes.Replace(b64Body(pixels[:want]), []byte("AAAA"), []byte("\r\n\r\n"), 1)},
	} {
		if _, err := decodeBoth(t, tc.body, want); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := decodeBoth(t, pixelsBody(pixels[:want]), want); err != nil {
		t.Errorf("exact size refused: %v", err)
	}
}

// A non-finite pixel is refused by index, whichever path sees it.
func TestInferBodyNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		_, err := decodeBoth(t, b64Body([]float32{1, 2, bad, 4}), 4)
		if err == nil || !strings.Contains(err.Error(), "pixel 2") {
			t.Errorf("%v: err = %v, want one naming pixel 2", bad, err)
		}
	}
	for _, text := range []string{"1e39", "-1e39", "3.5e38"} {
		if _, err := decodeBoth(t, []byte(fmt.Sprintf(`{"pixels":[1,2,%s,4]}`, text)), 4); err == nil {
			t.Errorf("pixels value %s accepted", text)
		}
	}
}

// pixelRows are single JSON numbers around every edge of cursor.pixel:
// the value encoding/json gives them, or refused.
var pixelRows = []struct {
	text    string
	want    float32
	refused bool
}{
	// Exact float32 midpoints round to even, on strconv's path.
	{text: "16777217", want: 16777216},
	{text: "16777219", want: 16777220},
	{text: "1.000000059604644775390625", want: 1},
	{text: "1.000000178813934326171875", want: 1.0000002},
	// Decimals whose float64 is a float32 midpoint, within the fast path's
	// bounds: float32(float64) would round them to even, wrongly.
	{text: "1.000000536441803", want: 1.0000006},
	{text: "3.141590714454651", want: 3.1415908},
	{text: "1.000000350177288e-01", want: 0.10000003},
	{text: "1.000000679747854e+20", want: 1.0000006e20},
	{text: "-5.000002202146923e+25", want: -5.0000024e25},
	{text: "1.000000355057853e+30", want: 1.0000004e30},
	// The top of the range: MaxFloat32, a value above it that rounds to
	// it, and the midpoint to 2^128, the first value that overflows.
	{text: "3.4028235e38", want: math.MaxFloat32},
	{text: "-3.4028234663852886e+38", want: -math.MaxFloat32},
	{text: "340282356779733661637539395458142568447", want: math.MaxFloat32},
	{text: "340282356779733661637539395458142568448", refused: true},
	{text: "3.4028236e38", refused: true},
	{text: "-1e39", refused: true},
	// The bottom: the smallest normal, subnormals, and underflow to zero.
	{text: "1.17549435e-38", want: 0x1p-126},
	{text: "1.1754942e-38", want: math.Float32frombits(0x007fffff)},
	{text: "5.877472e-39", want: 0x1p-127},
	{text: "1e-45", want: math.SmallestNonzeroFloat32},
	{text: "7.1e-46", want: math.SmallestNonzeroFloat32},
	{text: "7e-46", want: 0},
	{text: "-1e-50", want: float32(math.Copysign(0, -1))},
	// 16- to 20-digit mantissas around 2^53 and the 19-digit cut.
	{text: "9007199254740991", want: 9007199254740992},
	{text: "9007199254740993", want: 9007199254740992},
	{text: "1234567890123456789", want: 1234567890123456789},
	{text: "12345678901234567890", want: 12345678901234567890},
	{text: "18446744073709551617", want: 18446744073709551617}, // 2^64+1 wraps a uint64 to 1
	{text: "0.1234567890123456789", want: 0.1234567890123456789},
	{text: "1.0000000596046447753906250001", want: 1.0000001},
	// Exponents at and past the exact powers of ten.
	{text: "1e22", want: 1e22},
	{text: "1E+22", want: 1e22},
	{text: "1e23", want: 1e23},
	{text: "1e-22", want: 1e-22},
	{text: "1.5e-22", want: 1.5e-22},
	{text: "1e-23", want: 1e-23},
	{text: "123e-25", want: 123e-25},
	// Zeros and spellings JSON allows.
	{text: "-0", want: float32(math.Copysign(0, -1))},
	{text: "0", want: 0},
	{text: "0e5", want: 0},
	{text: "-0.000e-7", want: float32(math.Copysign(0, -1))},
	{text: "1E+2", want: 100},
	{text: "1e0002", want: 100},
	// Spellings strconv or a careless scanner would take and JSON does not.
	{text: "01", refused: true},
	{text: "1.", refused: true},
	{text: ".5", refused: true},
	{text: "-", refused: true},
	{text: "1e", refused: true},
	{text: "1e+", refused: true},
	{text: "+1", refused: true},
	{text: "NaN", refused: true},
	{text: "Inf", refused: true},
	{text: "1_0", refused: true},
	{text: "0x1p-2", refused: true},
}

// Every pixelRows number, as the one pixel of a body, decodes to its
// value bit for bit and exactly as encoding/json decodes it; a number JSON
// allows in float32 range is read by the scanner itself.
func TestPixelNumberExactness(t *testing.T) {
	for _, row := range pixelRows {
		body := []byte(`{"pixels":[` + row.text + `]}`)
		got, err := decodeBoth(t, body, 1)
		if row.refused {
			if err == nil {
				t.Errorf("%s: accepted as %v", row.text, got[0])
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.text, err)
			continue
		}
		if math.Float32bits(got[0]) != math.Float32bits(row.want) {
			t.Errorf("%s: decoded %v (%#x), want %v (%#x)", row.text, got[0],
				math.Float32bits(got[0]), row.want, math.Float32bits(row.want))
		}
		var bb bodyBuf
		bb.body.Write(body)
		if _, _, ok := bb.scan(1); !ok {
			t.Errorf("%s: fell back to encoding/json", row.text)
		}
	}
}

// The near-midpoint rows and the exact midpoint 2^24+1 are inside the
// fast path's bounds, so its midpoint test is what sends them to strconv;
// the exact powers of ten and the harness's spellings are answered by the
// fast path itself.
func TestPixelFastPathReach(t *testing.T) {
	for _, tc := range []struct {
		text         string
		bounds, fast bool
	}{
		{"1.000000536441803", true, false}, {"-5.000002202146923e+25", true, false},
		{"1.000000355057853e+30", true, false}, {"16777217", true, false},
		{"1e22", true, true}, {"1e-22", true, true}, {"-0.3", true, true}, {"1.2345679e-05", true, true},
		{"1e23", false, false}, {"1e-23", false, false}, {"9007199254740993", false, false},
		{"1234567890123456789", false, false}, {"-0", false, false},
	} {
		c := cursor{b: []byte(tc.text)}
		tok, d := c.number()
		if string(tok) != tc.text {
			t.Fatalf("%s: number took %q", tc.text, tok)
		}
		bounds := !d.many && d.mant != 0 && d.mant < 1<<53 && d.exp10 >= -22 && d.exp10 <= 22
		if bounds != tc.bounds {
			t.Errorf("%s: within the fast path's bounds = %v, want %v (%+v)", tc.text, bounds, tc.bounds, d)
		}
		if _, ok := d.float32(); ok != tc.fast {
			t.Errorf("%s: fast path ok = %v, want %v", tc.text, ok, tc.fast)
		}
	}
}

// A grid of 10^6 float32s in the harness's spelling — shortest-form
// decimals — comes back bit for bit through the scanner: half stride over
// every finite bit pattern, half are N(0,1) pixels like the benchmark's.
func TestPixelGridRoundTrip(t *testing.T) {
	const n, image = 1_000_000, 3 * 32 * 32
	rng := rand.New(rand.NewSource(1))
	grid := make([]float32, n)
	for i := range grid {
		if i%2 == 0 {
			u := uint32(i/2) * 8589 // 500k steps across 2^32 bit patterns
			if u&0x7f800000 == 0x7f800000 {
				u &^= 0x00800000 // keep the value finite
			}
			grid[i] = math.Float32frombits(u)
		} else {
			grid[i] = float32(rng.NormFloat64())
		}
	}
	for from := 0; from < n; from += image {
		pixels := grid[from:min(from+image, n)]
		body := pixelsBody(pixels)
		var bb bodyBuf
		bb.body.Write(body)
		if _, _, ok := bb.scan(len(pixels)); !ok {
			t.Fatalf("grid body at %d fell back to encoding/json", from)
		}
		got, err := decodeBoth(t, body, len(pixels))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range pixels {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("grid value %d: sent %#x, decoded %#x", from+i,
					math.Float32bits(v), math.Float32bits(got[i]))
			}
		}
	}
}

// jsonNumber is the JSON number grammar, anchored; its longest match is
// the prefix cursor.pixel must consume.
var jsonNumber = func() *regexp.Regexp {
	re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// FuzzPixelNumber: on any bytes, cursor.pixel either declines and
// consumes nothing, or consumes exactly the longest JSON-number prefix
// and returns strconv.ParseFloat's float32 of it — declining exactly when
// there is no such prefix or strconv refuses it.
func FuzzPixelNumber(f *testing.F) {
	for _, row := range pixelRows {
		f.Add([]byte(row.text))
	}
	f.Add([]byte("1.5,2"))
	f.Add([]byte("-0.25]"))
	f.Add([]byte("7e-3 "))
	f.Fuzz(func(t *testing.T, tok []byte) {
		c := cursor{b: tok}
		got, ok := c.pixel()
		prefix := jsonNumber.Find(tok)
		var ref float64
		err := strconv.ErrSyntax
		if prefix != nil {
			ref, err = strconv.ParseFloat(string(prefix), 32)
		}
		switch {
		case err != nil:
			if ok || c.i != 0 {
				t.Fatalf("%q: took %q as %v; strconv refuses %q (%v)", tok, tok[:c.i], got, prefix, err)
			}
		case !ok:
			t.Fatalf("%q: declined; strconv reads %q as %v", tok, prefix, float32(ref))
		case c.i != len(prefix):
			t.Fatalf("%q: consumed %q, want %q", tok, tok[:c.i], prefix)
		case math.Float32bits(got) != math.Float32bits(float32(ref)):
			t.Fatalf("%q: %v (%#x), strconv has %v (%#x)", tok, got, math.Float32bits(got),
				float32(ref), math.Float32bits(float32(ref)))
		}
	})
}
