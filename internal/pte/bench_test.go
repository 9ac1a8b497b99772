package pte

import (
	"fmt"
	"testing"

	"evr/internal/fixed"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// BenchmarkRenderFormats times one bilinear 64×64 PTE frame per projection
// and datapath width: the paper's [28, 10], a narrow [16, 8], and a 40-bit
// format whose products overflow 64 bits and take the 128-bit multiply.
func BenchmarkRenderFormats(b *testing.B) {
	full := noisyFrame(256, 128, 5)
	o := geom.Orientation{Yaw: 0.4, Pitch: -0.1, Roll: 0.05}
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	formats := []fixed.Format{fixed.Q2810, {TotalBits: 16, IntBits: 8}, {TotalBits: 40, IntBits: 10}}
	for _, m := range projection.Methods {
		for _, f := range formats {
			b.Run(fmt.Sprintf("%v/%d.%d", m, f.TotalBits, f.IntBits), func(b *testing.B) {
				cfg := DefaultConfig(m, pt.Bilinear, vp)
				cfg.Format = f
				e, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					e.Render(full, o)
				}
			})
		}
	}
}
