package pte

import (
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// datapath is the per-pixel fixed-point PT pipeline of a PTU (§6.2). All
// per-pixel arithmetic runs in the configured value format; only the final
// pixel-address generation uses a wider address format (a hardware address
// register is as wide as the frame dimensions require, independent of the
// arithmetic datapath width).
//
// It is a raw-integer kernel: values are the formats' raw int64 words and
// every op goes through the resolved arithmetic (fixed.Arith), which
// rounds and saturates exactly as the fixed.Fix methods do. Per-frame
// constants (rotation matrices from the D2R + Init-RM blocks, FOV tangents,
// raster steps) are computed once in beginFrame, mirroring the
// configuration registers the driver programs per frame; so are the
// per-column perspective products, which depend on the column alone.
type datapath struct {
	cfg Config
	a   *fixed.Arith // value (datapath) format
	aa  *fixed.Arith // address format for pixel coordinates

	// Constants quantized to the value format (raw words).
	one, half, third int64
	inv2pi, invPi    int64
	fourOverPi, d2r  int64
	invW, invH       int64      // 1/W, 1/H of the *viewport*
	fromInt          [256]int64 // FromInt(c): channel levels and face offsets
	halfAddr         int64      // 0.5 in the address format

	// Per-frame state.
	m        [3][3]int64 // head rotation matrix
	tx, ty   int64       // tan(FOV/2)
	inW, inH int         // input frame dimensions
	col      [3][]int64  // m[r][0]·px(i) for each output column i
}

// addressFormat returns the pixel-address format paired with a value format:
// the same fractional precision (capped so the total fits in 64 bits) with a
// 16-bit integer section, enough for 8K-wide frames.
func addressFormat(f fixed.Format) fixed.Format {
	frac := f.FracBits()
	if frac > 48 {
		frac = 48
	}
	return fixed.Format{TotalBits: frac + 16, IntBits: 16}
}

// convert re-quantizes the raw word x of one format into another,
// preserving the value.
func convert(x int64, from, to *fixed.Arith) int64 {
	df := to.Fmt.FracBits() - from.Fmt.FracBits()
	switch {
	case df > 0:
		shifted := x << uint(df)
		if df >= 63 || shifted>>uint(df) != x {
			// The widened raw overflows int64; saturate to the sign.
			if x > 0 {
				return to.Fmt.FromFloat(1e18).Raw
			}
			return to.Fmt.FromFloat(-1e18).Raw
		}
		x = shifted
	case df < 0:
		x >>= uint(-df)
	}
	return to.Sat(x)
}

func newDatapath(cfg Config) *datapath {
	f := cfg.Format
	af := addressFormat(f)
	d := &datapath{
		cfg:        cfg,
		a:          f.Arith(),
		aa:         af.Arith(),
		one:        f.One().Raw,
		half:       f.FromFloat(0.5).Raw,
		third:      f.FromFloat(1.0 / 3).Raw,
		inv2pi:     f.FromFloat(1 / (2 * 3.14159265358979)).Raw,
		invPi:      f.FromFloat(1 / 3.14159265358979).Raw,
		fourOverPi: f.FromFloat(4 / 3.14159265358979).Raw,
		d2r:        f.FromFloat(3.14159265358979 / 180).Raw,
		invW:       f.FromFloat(1 / float64(cfg.Viewport.Width)).Raw,
		invH:       f.FromFloat(1 / float64(cfg.Viewport.Height)).Raw,
		halfAddr:   af.FromFloat(0.5).Raw,
	}
	for c := range d.fromInt {
		d.fromInt[c] = f.FromInt(c).Raw
	}
	for r := range d.col {
		d.col[r] = make([]int64, cfg.Viewport.Width)
	}
	return d
}

// sinCosDeg runs the D2R block (degrees → radians) followed by the CORDIC
// sin/cos, as in the mapping-engine front end (Fig. 8: "Init. RM D2R").
func (d *datapath) sinCosDeg(deg float64) (sin, cos int64) {
	return d.a.SinCos(d.a.Mul(d.a.Fmt.FromFloat(deg).Raw, d.d2r))
}

// beginFrame programs the per-frame state: rotation matrices for the head
// orientation, the raster-scan constants for the viewport, and the
// column half of the perspective update.
func (d *datapath) beginFrame(o geom.Orientation, inW, inH int) {
	a := d.a
	sy, cy := d.sinCosDeg(geom.Degrees(o.Yaw))
	sp, cp := d.sinCosDeg(geom.Degrees(-o.Pitch))
	sr, cr := d.sinCosDeg(geom.Degrees(o.Roll))
	// Ry(yaw) — sparse rotation matrix, computed by the four-way MAC unit.
	ry := [3][3]int64{{cy, 0, sy}, {0, d.one, 0}, {a.Neg(sy), 0, cy}}
	// Rx(-pitch).
	rx := [3][3]int64{{d.one, 0, 0}, {0, cp, a.Neg(sp)}, {0, sp, cp}}
	// Rz(roll).
	rz := [3][3]int64{{cr, a.Neg(sr), 0}, {sr, cr, 0}, {0, 0, d.one}}
	d.m = d.matMul(d.matMul(ry, rx), rz)

	// FOV tangents: tan = sin/cos on the CORDIC outputs.
	sx, cx := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVX / 2))
	d.tx = a.Div(sx, cx)
	syv, cyv := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVY / 2))
	d.ty = a.Div(syv, cyv)

	d.inW, d.inH = inW, inH

	// px = (2(i+0.5)/W − 1)·tx via an index multiplier, (2i+1)·(tx/W) − tx,
	// and its products with the matrix's first column. Every op is pure, so
	// forming them once per column gives each pixel the very words the
	// per-pixel pipeline computes.
	txw := a.Mul(d.tx, d.invW)
	for i := range d.col[0] {
		px := a.Sub(a.MulInt(txw, 2*i+1), d.tx)
		for r := range d.col {
			d.col[r][i] = a.Mul(d.m[r][0], px)
		}
	}
}

func (d *datapath) matMul(x, y [3][3]int64) [3][3]int64 {
	a := d.a
	var r [3][3]int64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = a.Add(a.Add(a.Mul(x[i][0], y[0][j]), a.Mul(x[i][1], y[1][j])), a.Mul(x[i][2], y[2][j]))
		}
	}
	return r
}

// row runs the pipeline for output row j, writing its RGB bytes to dst and
// sampling the input frame through the P-MEM line-buffer model.
func (d *datapath) row(full *frame.Frame, pmem *lineBuffer, j int, dst []byte) {
	my := d.rowProducts(j)
	for i := range d.col[0] {
		u, v := d.mapDir(d.perspective(i, &my))
		dst[3*i], dst[3*i+1], dst[3*i+2] = d.sample(full, pmem, u, v)
	}
}

// rowProducts is the row half of the perspective update for output row j:
// py = ty − (2j+1)·(ty/H) and its products m[r][1]·py with the matrix's
// second column.
func (d *datapath) rowProducts(j int) [3]int64 {
	a := d.a
	py := a.Sub(d.ty, a.MulInt(a.Mul(d.ty, d.invH), 2*j+1))
	return [3]int64{a.Mul(d.m[0][1], py), a.Mul(d.m[1][1], py), a.Mul(d.m[2][1], py)}
}

// perspective runs the perspective-update stage for output column i of the
// row whose products are my: the sphere point P′ = M · (px, py, 1) as a
// (non-normalized) direction vector, three rows on the four-way MAC unit.
func (d *datapath) perspective(i int, my *[3]int64) (x, y, z int64) {
	a := d.a
	x = a.Add(a.Add(d.col[0][i], my[0]), d.m[0][2])
	y = a.Add(a.Add(d.col[1][i], my[1]), d.m[1][2])
	z = a.Add(a.Add(d.col[2][i], my[2]), d.m[2][2])
	return x, y, z
}

// mapDir runs the mapping stage: direction → normalized frame coordinates
// (u, v) in the value format, per the modular structure of Equ. 1–3.
func (d *datapath) mapDir(x, y, z int64) (u, v int64) {
	a := d.a
	switch d.cfg.Projection {
	case projection.ERP:
		// C2S ∘ LS_erp.
		theta := a.Atan2(x, z)
		rxz := a.Sqrt(a.Add(a.Mul(x, x), a.Mul(z, z)))
		phi := a.Atan2(y, rxz)
		u = a.Add(a.Mul(theta, d.inv2pi), d.half)
		v = a.Sub(d.half, a.Mul(phi, d.invPi))
		return u, v
	case projection.CMP:
		face, s, t := d.cubeIntersect(x, y, z)
		return d.c2f(face, s, t)
	default: // EAC
		face, s, t := d.cubeIntersect(x, y, z)
		s = a.Mul(a.Atan2(s, d.one), d.fourOverPi)
		t = a.Mul(a.Atan2(t, d.one), d.fourOverPi)
		return d.c2f(face, s, t)
	}
}

// cubeIntersect is the fixed-point face selector: dominant axis comparison
// plus two divisions, returning face-local coordinates in [-1, 1].
func (d *datapath) cubeIntersect(x, y, z int64) (projection.Face, int64, int64) {
	a := d.a
	ax, ay, az := a.Abs(x), a.Abs(y), a.Abs(z)
	switch {
	case ax >= ay && ax >= az:
		if x > 0 {
			return projection.FacePosX, a.Div(a.Neg(z), ax), a.Div(a.Neg(y), ax)
		}
		return projection.FaceNegX, a.Div(z, ax), a.Div(a.Neg(y), ax)
	case ay >= ax && ay >= az:
		if y > 0 {
			return projection.FacePosY, a.Div(x, ay), a.Div(z, ay)
		}
		return projection.FaceNegY, a.Div(x, ay), a.Div(a.Neg(z), ay)
	default:
		if z > 0 {
			return projection.FacePosZ, a.Div(x, az), a.Div(a.Neg(y), az)
		}
		return projection.FaceNegZ, a.Div(a.Neg(x), az), a.Div(a.Neg(y), az)
	}
}

// facePlacement mirrors the projection package's 3×2 layout.
var facePlacement = [6][2]int{
	projection.FacePosX: {0, 0},
	projection.FaceNegX: {1, 0},
	projection.FacePosY: {2, 0},
	projection.FaceNegY: {0, 1},
	projection.FacePosZ: {1, 1},
	projection.FaceNegZ: {2, 1},
}

// c2f is the fixed-point cube-to-frame block (Fig. 10): face coordinates in
// [-1, 1] → normalized frame coordinates.
func (d *datapath) c2f(face projection.Face, s, t int64) (u, v int64) {
	a := d.a
	p := facePlacement[face]
	fu := a.Add(s, d.one) >> 1 // (s+1)/2
	fv := a.Add(t, d.one) >> 1
	u = a.Mul(a.Add(d.fromInt[p[0]], fu), d.third)
	v = a.Add(d.fromInt[p[1]], fv) >> 1
	return u, v
}

// sample runs address generation and the filtering stage for normalized
// frame coordinates (u, v).
func (d *datapath) sample(full *frame.Frame, pmem *lineBuffer, u, v int64) (r, g, b byte) {
	a, aa := d.a, d.aa
	// Address generation: continuous pixel coordinates in the wide format.
	uPix := aa.Sub(aa.MulInt(convert(u, a, aa), d.inW), d.halfAddr)
	vPix := aa.Sub(aa.MulInt(convert(v, a, aa), d.inH), d.halfAddr)
	shift := uint(aa.Fmt.FracBits())

	if d.cfg.Filter == pt.Nearest {
		xi := int(aa.Add(uPix, d.halfAddr) >> shift)
		yi := int(aa.Add(vPix, d.halfAddr) >> shift)
		return d.fetch(full, pmem, xi, yi)
	}

	// Bilinear: integer corner plus fractional weights. The corner is the
	// floor of the coordinate, so the fraction uPix − FromInt(x0) is exactly
	// its low address bits (no saturation can occur on either step).
	x0 := int(uPix >> shift)
	y0 := int(vPix >> shift)
	mask := int64(1)<<shift - 1
	fx := convert(uPix&mask, aa, a)
	fy := convert(vPix&mask, aa, a)
	gx := a.Sub(d.one, fx)
	gy := a.Sub(d.one, fy)

	r00, g00, b00 := d.fetch(full, pmem, x0, y0)
	r10, g10, b10 := d.fetch(full, pmem, x0+1, y0)
	r01, g01, b01 := d.fetch(full, pmem, x0, y0+1)
	r11, g11, b11 := d.fetch(full, pmem, x0+1, y0+1)

	w := [4]int64{a.Mul(gx, gy), a.Mul(fx, gy), a.Mul(gx, fy), a.Mul(fx, fy)}
	return d.blend(&w, r00, r10, r01, r11), d.blend(&w, g00, g10, g01, g11), d.blend(&w, b00, b10, b01, b11)
}

// blend mixes one channel of the four texels with the bilinear weights w
// (w00, w10, w01, w11), rounding to the nearest level and clamping to a
// byte.
func (d *datapath) blend(w *[4]int64, c00, c10, c01, c11 byte) byte {
	a := d.a
	acc := a.Mul(w[0], d.fromInt[c00])
	acc = a.Add(acc, a.Mul(w[1], d.fromInt[c10]))
	acc = a.Add(acc, a.Mul(w[2], d.fromInt[c01]))
	acc = a.Add(acc, a.Mul(w[3], d.fromInt[c11]))
	n := a.Add(acc, d.half) >> uint(a.Fmt.FracBits())
	if n < 0 {
		n = 0
	}
	if n > 255 {
		n = 255
	}
	return byte(n)
}

// fetch reads one input pixel through the line buffer. Rows clamp at the
// frame border like the filtering hardware; columns wrap for ERP input
// (the hardware address generator computes x mod W, since the left and
// right edges of an equirectangular frame meet at the ±180° seam) and
// clamp for the cubemap layouts.
func (d *datapath) fetch(full *frame.Frame, pmem *lineBuffer, x, y int) (r, g, b byte) {
	if y < 0 {
		y = 0
	}
	if y >= full.H {
		y = full.H - 1
	}
	pmem.touch(y)
	if d.cfg.Projection == projection.ERP {
		return full.AtWrapX(x, y)
	}
	return full.At(x, y)
}
