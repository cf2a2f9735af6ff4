package compress

import (
	"bytes"
	"testing"
)

// FuzzCompressRoundTrip checks the compressor's contract on arbitrary
// payloads: Compress(data) must decompress back to data byte-for-byte at
// every valid stride/order, never expand beyond the 8-byte header, and
// Decompress must reject (not panic on) the raw fuzz input when it is not
// a valid blob.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0))
	f.Add([]byte("hello, fog"), byte(1), byte(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 64), byte(4), byte(2))
	f.Add(bytes.Repeat([]byte{0}, 300), byte(2), byte(1))
	smooth := make([]byte, 256)
	for i := range smooth {
		smooth[i] = byte(i / 4)
	}
	f.Add(smooth, byte(2), byte(2))

	f.Fuzz(func(t *testing.T, data []byte, stride, order byte) {
		s := int(stride) % 16 // Compress documents stride ≤ 15
		o := int(order) % 3   // and order 0–2; out of range panics by contract

		blob, st := Compress(data, s, o)
		if st.InBytes != len(data) || st.OutBytes != len(blob) {
			t.Fatalf("stats lie: %+v for in=%d out=%d", st, len(data), len(blob))
		}
		if len(blob) > len(data)+8 {
			t.Fatalf("expanded beyond the stored-block bound: %d → %d", len(data), len(blob))
		}
		out, _, err := Decompress(blob)
		if err != nil {
			t.Fatalf("round trip failed (stride %d, order %d): %v", s, o, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip corrupted %d bytes (stride %d, order %d)", len(data), s, o)
		}

		// Arbitrary bytes fed straight to Decompress must error or decode
		// cleanly — never panic, never return with a wrong length claim.
		if dec, st, err := Decompress(data); err == nil && len(dec) != st.OutBytes {
			t.Fatalf("decoder length claim wrong: %d vs %d", len(dec), st.OutBytes)
		}
	})
}

// FuzzPooledCompress proves a recycled pool buffer never leaks bytes from a
// previous packet: compressing B must produce the same blob whether the
// pools are cold or freshly poisoned by compressing (and decompressing) an
// arbitrary packet A, and B must still round-trip exactly.
func FuzzPooledCompress(f *testing.F) {
	f.Add([]byte("poison"), bytes.Repeat([]byte{7, 7, 0, 0}, 64), byte(4), byte(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 512), []byte{}, byte(0), byte(0))
	f.Add(bytes.Repeat([]byte{1, 2}, 300), bytes.Repeat([]byte{0}, 300), byte(2), byte(2))

	f.Fuzz(func(t *testing.T, poison, data []byte, stride, order byte) {
		s := int(stride) % 16
		o := int(order) % 3

		want, _ := Compress(data, s, o)

		// Drag the pooled scratch through an unrelated packet, including a
		// decompression so the decoder-side pool is poisoned too.
		pb, _ := Compress(poison, (s+3)%16, (o+1)%3)
		if _, _, err := Decompress(pb); err != nil {
			t.Fatalf("poison round trip: %v", err)
		}

		got, _ := Compress(data, s, o)
		if !bytes.Equal(got, want) {
			t.Fatalf("pooled output depends on pool history (stride %d, order %d)", s, o)
		}
		out, _, err := Decompress(got)
		if err != nil {
			t.Fatalf("round trip failed after pool reuse: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("recycled buffers leaked bytes into a %d-byte packet", len(data))
		}
	})
}

// FuzzImageRoundTrip checks the image codec on arbitrary frames: any
// width and height that are multiples of 8 up to 64, any quality 1–100
// and any pixels (tiled to fill the frame) must decode back to a frame of
// the same shape. testdata/fuzz holds the noise frames that once derailed
// the decoder at a block ending in a nonzero 64th coefficient.
func FuzzImageRoundTrip(f *testing.F) {
	f.Add(byte(0), byte(0), byte(49), []byte{128})
	f.Add(byte(1), byte(3), byte(74), []byte{0, 64, 128, 192, 255})

	f.Fuzz(func(t *testing.T, wb, hb, qb byte, pixels []byte) {
		w, h, q := 8*(1+int(wb)%8), 8*(1+int(hb)%8), 1+int(qb)%100
		frame := make([]byte, w*h)
		for i := range frame {
			if len(pixels) > 0 {
				frame[i] = pixels[i%len(pixels)]
			}
		}
		blob, st, err := CompressImage(frame, w, h, q)
		if err != nil {
			t.Fatal(err)
		}
		if st.InBytes != len(frame) || st.OutBytes != len(blob) {
			t.Fatalf("stats lie: %+v for in=%d out=%d", st, len(frame), len(blob))
		}
		back, gw, gh, _, err := DecompressImage(blob)
		if err != nil {
			t.Fatalf("%dx%d q%d: %v", w, h, q, err)
		}
		if gw != w || gh != h || len(back) != len(frame) {
			t.Fatalf("%dx%d q%d decoded as %dx%d with %d pixels", w, h, q, gw, gh, len(back))
		}
	})
}
