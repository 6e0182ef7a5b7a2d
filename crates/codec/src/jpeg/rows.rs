//! The row stage of the decode kernel: chroma upsample → YCbCr→RGB →
//! horizontal taps → vertical lerp → output format, one source row at a
//! time, written straight into the caller's window.
//!
//! The stage is fed component planes that hold whole MCU rows — one MCU row
//! at a time from the streaming decoder, or all of them at once from the
//! segment-parallel one — and consumes the source rows they complete. The
//! full-size RGB image never exists: a source row is converted into a row
//! buffer, lerped horizontally into one of two f32 rows, and every output
//! row whose two source rows are done is blended and stored.

use super::decoder::Frame;
use super::scratch::{grown, RowBuffers};
use crate::error::{CodecError, CodecResult};
use crate::pixel::{luma_bt601, upsample_dup2_row, ycbcr_rows_to_rgb, ColorSpace, Image};
use crate::resize::{hlerp_row, lerp_rows_to_u8, VerticalLerp};
use std::time::Instant;

/// Component planes holding the MCU rows that start at source row `base_y`.
pub(super) struct Planes<'p> {
    pub(super) data: [&'p [u8]; 3],
    /// Row stride of each plane in bytes.
    pub(super) stride: [usize; 3],
    /// Source row (luma scale) of each plane's first row; a multiple of the
    /// MCU height.
    pub(super) base_y: usize,
}

/// Geometry and progress of one image through the row stage.
pub(super) struct RowStage {
    sw: usize,
    sh: usize,
    src_color: ColorSpace,
    /// (h, v) sampling of each component and the frame maxima.
    sampling: [(usize, usize); 3],
    h_max: usize,
    v_max: usize,
    out_w: usize,
    out_h: usize,
    out_color: ColorSpace,
    /// `None` when rows are delivered at source geometry.
    vlerp: Option<VerticalLerp>,
    /// Source rows consumed so far.
    next_y: usize,
}

impl RowStage {
    /// Plans the delivery of `frame` at `target` (`None` = source geometry)
    /// in `out_color`, sizing `bufs` for it.
    pub(super) fn new(
        frame: &Frame,
        target: Option<(u32, u32)>,
        out_color: ColorSpace,
        bufs: &mut RowBuffers,
    ) -> CodecResult<Self> {
        let (sw, sh) = (frame.width as usize, frame.height as usize);
        let (out_w, out_h) = match target {
            None => (sw, sh),
            Some((w, h)) => {
                if w == 0 || h == 0 || w > Image::MAX_DIM || h > Image::MAX_DIM {
                    return Err(CodecError::UnsupportedDimensions {
                        width: w,
                        height: h,
                    });
                }
                (w as usize, h as usize)
            }
        };
        let src_color = if frame.ncomp == 1 {
            ColorSpace::Gray
        } else {
            ColorSpace::Rgb
        };
        let (h_max, v_max) = frame.max_sampling();
        let mut sampling = [(1, 1); 3];
        for (s, c) in sampling.iter_mut().zip(frame.components()) {
            *s = (c.h as usize, c.v as usize);
        }
        let c = src_color.channels();
        for (row, &(h, _)) in bufs.comp_rows.iter_mut().zip(&sampling[..frame.ncomp]) {
            if h < h_max {
                grown(row, sw);
            }
        }
        grown(&mut bufs.src_row, sw * c + 1);
        let resizing = (out_w, out_h) != (sw, sh);
        if resizing {
            bufs.taps.prepare(sw, out_w, c);
            for slot in &mut bufs.slots {
                grown(slot, out_w * c + 1);
            }
        }
        if out_color != src_color {
            grown(&mut bufs.out_row, out_w * c);
        }
        Ok(Self {
            sw,
            sh,
            src_color,
            sampling,
            h_max,
            v_max,
            out_w,
            out_h,
            out_color,
            vlerp: resizing.then(|| VerticalLerp::new(sh, out_h)),
            next_y: 0,
        })
    }

    /// Output geometry: (width, height).
    pub(super) fn out_dims(&self) -> (usize, usize) {
        (self.out_w, self.out_h)
    }

    /// Whether delivery resizes or changes the colour layout (as opposed
    /// to writing converted source rows straight out).
    pub(super) fn reshapes(&self) -> bool {
        self.vlerp.is_some() || self.out_color != self.src_color
    }

    /// Bytes of the delivered image.
    pub(super) fn out_len(&self) -> usize {
        self.out_w * self.out_h * self.out_color.channels()
    }

    /// Consumes the source rows `planes` completes — those below
    /// `rows_ready` — and writes every output row they finish into `out`.
    /// When `timing` is set and the stage [`RowStage::reshapes`], returns the
    /// nanoseconds of the call spent in chroma upsampling and colour
    /// conversion (the rest is resize and format work); 0 otherwise.
    pub(super) fn push(
        &mut self,
        planes: &Planes<'_>,
        rows_ready: usize,
        bufs: &mut RowBuffers,
        out: &mut [u8],
        timing: bool,
    ) -> u64 {
        let rows_ready = rows_ready.min(self.sh);
        let sc = self.src_color.channels();
        let oc = self.out_color.channels();
        let (sw, out_w) = (self.sw, self.out_w);
        let convert = self.out_color != self.src_color;
        let RowBuffers {
            comp_rows,
            src_row,
            taps,
            slots,
            out_row,
        } = bufs;
        let mut color_ns = 0u64;
        let source = SourceRows {
            planes,
            sw,
            gray: self.src_color == ColorSpace::Gray,
            sampling: self.sampling,
            h_max: self.h_max,
            v_max: self.v_max,
        };

        let Some(vlerp) = &mut self.vlerp else {
            // Source geometry: each source row is an output row.
            for y in self.next_y..rows_ready {
                let dst = &mut out[y * out_w * oc..][..out_w * oc];
                if convert {
                    let t0 = timing.then(Instant::now);
                    source.write(y, comp_rows, &mut src_row[..sw * sc]);
                    if let Some(t0) = t0 {
                        color_ns += t0.elapsed().as_nanos() as u64;
                    }
                    convert_row(&src_row[..sw * sc], self.src_color, dst);
                } else {
                    source.write(y, comp_rows, dst);
                }
            }
            self.next_y = rows_ready;
            return color_ns;
        };

        vlerp.advance(
            rows_ready,
            slots,
            |y, buf| {
                let t0 = timing.then(Instant::now);
                source.write(y, comp_rows, &mut src_row[..sw * sc]);
                if let Some(t0) = t0 {
                    color_ns += t0.elapsed().as_nanos() as u64;
                }
                // The pad byte past the row lets every tap take the SIMD
                // path; its value never reaches an output channel.
                hlerp_row(&src_row[..sw * sc + 1], sc, taps, buf);
            },
            |dy, top, bot, wy| {
                let n = out_w * sc;
                let dst = &mut out[dy * out_w * oc..][..out_w * oc];
                if convert {
                    lerp_rows_to_u8(&top[..n], &bot[..n], wy, &mut out_row[..n]);
                    convert_row(&out_row[..n], self.src_color, dst);
                } else {
                    lerp_rows_to_u8(&top[..n], &bot[..n], wy, dst);
                }
            },
        );
        self.next_y = rows_ready;
        color_ns
    }
}

/// Builds source rows (gray, or RGB from upsampled YCbCr) out of planes.
struct SourceRows<'a, 'p> {
    planes: &'a Planes<'p>,
    sw: usize,
    gray: bool,
    sampling: [(usize, usize); 3],
    h_max: usize,
    v_max: usize,
}

impl SourceRows<'_, '_> {
    /// Plane row of component `ci` that source row `y` samples. Vertical
    /// subsampling is row selection (`y·v / v_max`).
    fn plane_row(&self, ci: usize, y: usize) -> &[u8] {
        let v = self.sampling[ci].1;
        let local = y * v / self.v_max - self.planes.base_y * v / self.v_max;
        &self.planes.data[ci][local * self.planes.stride[ci]..][..self.planes.stride[ci]]
    }

    /// Writes source row `y` into `dst` (`sw` bytes gray, `3·sw` RGB).
    /// Full-resolution components hand their plane rows to the converter
    /// directly; 2×-subsampled ones are expanded once per row with the
    /// duplicating upsampler (`out[x] = src[x/2]`, the nearest-neighbour
    /// mapping `x·h / h_max` without a per-pixel division).
    fn write(&self, y: usize, comp_rows: &mut [Vec<u8>; 3], dst: &mut [u8]) {
        let sw = self.sw;
        if self.gray {
            dst.copy_from_slice(&self.plane_row(0, y)[..sw]);
            return;
        }
        for (ci, row) in comp_rows.iter_mut().enumerate() {
            if self.sampling[ci].0 < self.h_max {
                upsample_dup2_row(self.plane_row(ci, y), &mut row[..sw]);
            }
        }
        let row_of = |ci: usize| -> &[u8] {
            if self.sampling[ci].0 < self.h_max {
                &comp_rows[ci][..sw]
            } else {
                &self.plane_row(ci, y)[..sw]
            }
        };
        ycbcr_rows_to_rgb(row_of(0), row_of(1), row_of(2), dst);
    }
}

/// Converts one row between the two colour layouts: what [`Image::to_gray`]
/// and [`Image::to_rgb`] do to a whole image.
fn convert_row(src: &[u8], src_color: ColorSpace, dst: &mut [u8]) {
    match src_color {
        ColorSpace::Rgb => {
            for (d, s) in dst.iter_mut().zip(src.chunks_exact(3)) {
                *d = luma_bt601(s[0], s[1], s[2]);
            }
        }
        ColorSpace::Gray => {
            for (d, &g) in dst.chunks_exact_mut(3).zip(src) {
                d.fill(g);
            }
        }
    }
}
