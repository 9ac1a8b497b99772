package pte

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"evr/internal/fixed"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// kernelFormats is the format set the differential test covers: the
// paper's [28, 10], every format of the Fig 11 sweep, the SPORT candidate
// menu, and edge widths (a full 64-bit word, a 4-bit integer part, pure
// integers, a 12-bit word, a sign-only integer part whose [-1, 1) range
// saturates the perspective sums).
func kernelFormats() []fixed.Format {
	seen := map[fixed.Format]bool{}
	var fs []fixed.Format
	add := func(f fixed.Format) {
		if !seen[f] {
			seen[f] = true
			fs = append(fs, f)
		}
	}
	add(fixed.Q2810)
	for _, bits := range []int{24, 28, 32, 40, 48, 56, 64} { // Fig 11
		for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			add(fixed.Format{TotalBits: bits, IntBits: max(int(math.Round(float64(bits)*share)), 1)})
		}
	}
	for _, bits := range []int{20, 22, 23, 24, 25, 26, 27, 28, 29, 30} { // SPORT
		add(fixed.Format{TotalBits: bits, IntBits: 10})
	}
	add(fixed.Format{TotalBits: 32, IntBits: 12})
	for _, f := range []fixed.Format{{TotalBits: 64, IntBits: 32}, {TotalBits: 60, IntBits: 4}, {TotalBits: 8, IntBits: 8}, {TotalBits: 12, IntBits: 4}, {TotalBits: 16, IntBits: 1}} {
		add(f)
	}
	return fs
}

// kernelPoses straddle the ERP ±180° seam, look at both poles, and roll.
// The last keeps yaw under one degree: a sign-only integer part clamps
// every angle (in degrees) to ±1°, and only then does the z row of the
// perspective update, whose constant term saturates at ≈ 1, overflow in
// its partial sums.
var kernelPoses = []geom.Orientation{
	{},
	{Yaw: math.Pi},
	{Yaw: -math.Pi + 0.01, Pitch: 0.2},
	{Pitch: math.Pi / 2},
	{Yaw: 0.5, Pitch: -math.Pi/2 + 0.05, Roll: 0.7},
	{Yaw: 2.3, Pitch: -0.6, Roll: -1.1},
	{Yaw: -0.0134, Pitch: 0.322, Roll: -0.569},
}

// kernelViewports are a moderate viewport and a wide one whose tangents
// reach ±3.7, so formats with two or three integer bits saturate
// mid-pipeline, where the order of saturating sums matters.
var kernelViewports = []projection.Viewport{
	{Width: 16, Height: 12, FOVX: geom.Radians(100), FOVY: geom.Radians(80)},
	{Width: 12, Height: 12, FOVX: geom.Radians(150), FOVY: geom.Radians(150)},
}

// TestKernelStagesMatchReference compares the kernel's perspective and
// mapping words with the reference datapath's, pixel by pixel, for every
// covered format, projection, viewport and pose: a stage error that the
// rounding to 8-bit output would hide still fails here.
func TestKernelStagesMatchReference(t *testing.T) {
	for _, f := range kernelFormats() {
		for _, m := range projection.Methods {
			for _, vp := range kernelViewports {
				cfg := DefaultConfig(m, pt.Bilinear, vp)
				cfg.Format = f
				d, ref := newDatapath(cfg), newRefDatapath(cfg)
				for _, o := range kernelPoses {
					d.beginFrame(o, 96, 48)
					ref.beginFrame(o, 96, 48)
					for j := 0; j < vp.Height; j++ {
						my := d.rowProducts(j)
						for i := 0; i < vp.Width; i++ {
							x, y, z := d.perspective(i, &my)
							rx, ry, rz := ref.perspective(i, j)
							if x != rx.Raw || y != ry.Raw || z != rz.Raw {
								t.Fatalf("%v %v %v pose %+v pixel (%d, %d): P′ (%d, %d, %d), reference (%d, %d, %d)", f, m, vp, o, i, j, x, y, z, rx.Raw, ry.Raw, rz.Raw)
							}
							u, v := d.mapDir(x, y, z)
							ru, rv := ref.mapDir(rx, ry, rz)
							if u != ru.Raw || v != rv.Raw {
								t.Fatalf("%v %v %v pose %+v pixel (%d, %d): (u, v) (%d, %d), reference (%d, %d)", f, m, vp, o, i, j, u, v, ru.Raw, rv.Raw)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelMatchesReference renders through the raw-integer kernel and the
// pre-kernel Fix datapath and requires byte-identical frames and identical
// P-MEM refill counts, for every covered format, projection and filter,
// with rotating viewports, poses and worker counts (1–4) — at [28, 10],
// every pose and worker count. TestKernelStagesMatchReference covers every
// pose of every format at the stage level.
func TestKernelMatchesReference(t *testing.T) {
	full := noisyFrame(96, 48, 17)
	vps := kernelViewports
	filters := []pt.Filter{pt.Nearest, pt.Bilinear}
	n := 0
	for _, f := range kernelFormats() {
		for _, m := range projection.Methods {
			for k, filt := range filters {
				vp := vps[(n+k)%len(vps)]
				cfg := DefaultConfig(m, filt, vp)
				cfg.Format = f
				type run struct {
					o       geom.Orientation
					workers int
				}
				var runs []run
				if f == fixed.Q2810 {
					for _, o := range kernelPoses {
						for w := 1; w <= 4; w++ {
							runs = append(runs, run{o, w})
						}
					}
				} else {
					for p := 0; p < 3; p++ {
						runs = append(runs, run{kernelPoses[(3*n+p)%len(kernelPoses)], 1 + (n+p)%4})
					}
				}
				n++
				for _, r := range runs {
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := e.RenderParallel(full, r.o, r.workers)
					want, refills := refRender(cfg, full, r.o, r.workers)
					if !got.Equal(want) {
						t.Fatalf("%v %v %v %v pose %+v, %d workers: kernel frame differs from the reference", f, m, filt, vp, r.o, r.workers)
					}
					if s := e.Stats(); s.PMEMLineRefills != refills {
						t.Fatalf("%v %v %v %v pose %+v, %d workers: %d refills, reference %d", f, m, filt, vp, r.o, r.workers, s.PMEMLineRefills, refills)
					}
				}
			}
		}
	}
}

// TestLineBufferMatchesMapLRU drives the slice-backed P-MEM window and the
// pre-kernel map-backed LRU with the same random row streams — a drifting
// filter stencil with random jumps — at capacity 1, below the frame height
// and at or above it. Refill counts must agree after every touch, and the
// resident sets at the end.
func TestLineBufferMatchesMapLRU(t *testing.T) {
	const width, height = 8, 48
	rng := rand.New(rand.NewSource(19))
	for _, rows := range []int{1, 2, 5, 47, 48, 200} {
		lb := newLineBuffer(rows*width*3, width, height)
		ref := newRefLineBuffer(rows*width*3, width)
		row := rng.Intn(height)
		for k := 0; k < 20000; k++ {
			if rng.Intn(10) == 0 {
				row = rng.Intn(height)
			} else {
				row = min(max(row+rng.Intn(3)-1, 0), height-1)
			}
			lb.touch(row)
			ref.touch(row)
			if lb.refills != ref.refills {
				t.Fatalf("capacity %d rows, touch %d (row %d): %d refills, map LRU %d", rows, k, row, lb.refills, ref.refills)
			}
		}
		var got, want []int
		for r, at := range lb.lastUse {
			if at != 0 {
				got = append(got, r)
			}
		}
		for r := range ref.resident {
			want = append(want, r)
		}
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("capacity %d rows: resident %v, map LRU %v", rows, got, want)
		}
	}
}

// TestEngineStatsPinned pins the cycle and traffic counters of fixed
// renders — two poses per engine, the prototype P-MEM and a 6-row one,
// one and two workers — to the values the pre-kernel engine produced.
func TestEngineStatsPinned(t *testing.T) {
	full := noisyFrame(96, 48, 11)
	vp := projection.Viewport{Width: 40, Height: 32, FOVX: geom.Radians(100), FOVY: geom.Radians(90)}
	poses := []geom.Orientation{{Yaw: 0.3, Pitch: -0.2}, {Yaw: -3.0, Pitch: 1.2, Roll: 0.4}}
	cases := []struct {
		m       projection.Method
		pmem    int
		workers int
		want    Stats
	}{
		{projection.ERP, 524288, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 1444, StallCycles: 68, DRAMReadBytes: 13536, DRAMWriteBytes: 7680, PMEMLineRefills: 47}},
		{projection.ERP, 524288, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 1692, StallCycles: 316, DRAMReadBytes: 17856, DRAMWriteBytes: 7680, PMEMLineRefills: 62}},
		{projection.ERP, 1728, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 7002, StallCycles: 5626, DRAMReadBytes: 102816, DRAMWriteBytes: 7680, PMEMLineRefills: 357}},
		{projection.ERP, 1728, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 10944, StallCycles: 9568, DRAMReadBytes: 165888, DRAMWriteBytes: 7680, PMEMLineRefills: 576}},
		{projection.CMP, 524288, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 1998, StallCycles: 622, DRAMReadBytes: 22752, DRAMWriteBytes: 7680, PMEMLineRefills: 79}},
		{projection.CMP, 524288, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 2502, StallCycles: 1126, DRAMReadBytes: 30816, DRAMWriteBytes: 7680, PMEMLineRefills: 107}},
		{projection.CMP, 1728, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 14868, StallCycles: 13492, DRAMReadBytes: 228672, DRAMWriteBytes: 7680, PMEMLineRefills: 794}},
		{projection.CMP, 1728, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 15894, StallCycles: 14518, DRAMReadBytes: 245088, DRAMWriteBytes: 7680, PMEMLineRefills: 851}},
		{projection.EAC, 524288, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 1998, StallCycles: 622, DRAMReadBytes: 22752, DRAMWriteBytes: 7680, PMEMLineRefills: 79}},
		{projection.EAC, 524288, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 2520, StallCycles: 1144, DRAMReadBytes: 31104, DRAMWriteBytes: 7680, PMEMLineRefills: 108}},
		{projection.EAC, 1728, 1, Stats{Frames: 2, OutputPixels: 2560, Cycles: 14418, StallCycles: 13042, DRAMReadBytes: 221472, DRAMWriteBytes: 7680, PMEMLineRefills: 769}},
		{projection.EAC, 1728, 2, Stats{Frames: 2, OutputPixels: 2560, Cycles: 15264, StallCycles: 13888, DRAMReadBytes: 235008, DRAMWriteBytes: 7680, PMEMLineRefills: 816}},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.m, pt.Bilinear, vp)
		cfg.PMEMSize = c.pmem
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range poses {
			e.RenderParallel(full, o, c.workers)
		}
		if got := e.Stats(); got != c.want {
			t.Errorf("%v P-MEM %d, %d workers: stats %+v, want %+v", c.m, c.pmem, c.workers, got, c.want)
		}
	}
}
