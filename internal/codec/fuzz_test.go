package codec

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"evr/internal/frame"
)

// TestDecodeNeverPanicsOnGarbage feeds random byte soup to the decoder:
// every input must produce a frame or an error, never a panic or a hang.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		dec := NewDecoder()
		_, _ = dec.Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(80))}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnMutatedValidStreams corrupts real bitstreams —
// bit flips, truncations, extensions — the nastier fuzz surface because
// headers parse and the block loop runs.
func TestDecodeNeverPanicsOnMutatedValidStreams(t *testing.T) {
	src := noisyGradient(32, 32, 90)
	enc, err := NewEncoder(Config{GOP: 2, Quality: 4, SearchRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]byte
	for i := 0; i < 3; i++ {
		data, _, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
	}
	rng := rand.New(rand.NewSource(81))
	mutate := func(data []byte) []byte {
		out := append([]byte(nil), data...)
		switch rng.Intn(4) {
		case 0: // bit flips
			for k := 0; k < 1+rng.Intn(8); k++ {
				out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			}
		case 1: // truncation
			out = out[:rng.Intn(len(out))]
		case 2: // extension with junk
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			out = append(out, junk...)
		case 3: // header scramble
			for k := 0; k < 6 && k < len(out); k++ {
				out[k] = byte(rng.Intn(256))
			}
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		data := mutate(streams[rng.Intn(len(streams))])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on mutated stream (trial %d): %v", trial, r)
				}
			}()
			dec := NewDecoder()
			// Feed a valid I-frame first so P-frames have a reference.
			dec.Decode(streams[0])
			dec.Decode(data)
		}()
	}
}

// oversizedHeader is a complete 7-byte I-frame header claiming a
// 65528×65528 frame with no block data behind it.
func oversizedHeader() []byte {
	w := &bitWriter{}
	w.writeBits(uint64(IFrame), 8)
	w.writeBits(65528, 16)
	w.writeBits(65528, 16)
	w.writeBits(4, 8)
	w.writeBits(0, 8)
	return w.bytes()
}

// decodeAlloc decodes data and returns the bytes the heap allocated meanwhile.
func decodeAlloc(dec *Decoder, data []byte) (alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = dec.Decode(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestDecoderBoundedWorkOnAdversarialInput guards against unbounded
// allocation: a header claiming a huge frame must fail before the frame is
// allocated (a 12 GiB make would kill the process, past any recover).
func TestDecoderBoundedWorkOnAdversarialInput(t *testing.T) {
	alloc, err := decodeAlloc(NewDecoder(), oversizedHeader())
	if err == nil {
		t.Error("giant empty frame accepted")
	}
	if alloc >= 1<<20 {
		t.Errorf("rejecting the giant header allocated %d bytes, want < 1 MiB", alloc)
	}
}

// maxDecodeAlloc bounds what decoding an n-byte payload may allocate. Each
// 8×8 block costs at least minBlockBits of payload, so the frame holds at
// most 64·8n/minBlockBits pixels of 3 bytes; chroma streams convert it back
// to RGB in a second frame. The slack covers the small fixed allocations.
func maxDecodeAlloc(n int) uint64 {
	pixels := blockSize * blockSize * 8 * n / minBlockBits
	return uint64(2*3*pixels) + 1<<20
}

// FuzzDecode feeds arbitrary payloads to a fresh decoder and to one holding
// a reference frame, so P-frames reach the block loop: every payload must
// decode or error, never panic, and never allocate more than its own size
// can describe.
func FuzzDecode(f *testing.F) {
	src := noisyGradient(32, 16, 1205)
	var ref []byte // an I-frame to give the second decoder a reference
	for _, cfg := range goldenConfigs {
		bs, err := EncodeSequence(cfg, []*frame.Frame{src, shifted(src, 1, 1)})
		if err != nil {
			f.Fatal(err)
		}
		for _, data := range bs.Frames {
			f.Add(data)
		}
		ref = bs.Frames[0]
	}
	f.Add(oversizedHeader())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		primed := NewDecoder()
		if _, err := primed.Decode(ref); err != nil {
			t.Fatal(err)
		}
		for _, dec := range []*Decoder{NewDecoder(), primed} {
			if alloc, _ := decodeAlloc(dec, data); alloc > maxDecodeAlloc(len(data)) {
				t.Fatalf("%d-byte payload allocated %d bytes, bound %d", len(data), alloc, maxDecodeAlloc(len(data)))
			}
		}
	})
}
