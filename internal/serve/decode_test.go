package serve

import (
	"bytes"
	"fmt"
	"math"
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
	for i, body := range inferBodySeeds[:7] {
		var bb bodyBuf
		bb.body.WriteString(body)
		if _, _, ok := bb.scan(2); !ok {
			t.Errorf("canonical body %d %q fell back to encoding/json", i, body)
		}
	}
	px, err := decodeBoth(t, []byte(inferBodySeeds[5]), 2)
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
