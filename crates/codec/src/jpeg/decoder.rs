//! Baseline JPEG decoder.
//!
//! This is the exact computation DLBooster's FPGA decoder performs (paper
//! Fig. 4): marker/metadata parsing, Huffman entropy decode, dequantisation,
//! inverse DCT, chroma upsampling, YCbCr→RGB conversion and the resizer. The
//! simulated FPGA lanes in `dlb-fpga` and the CPU baseline workers in
//! `dlb-backends` both run [`JpegDecoder::decode_into`], the streaming
//! kernel: one MCU row at a time is entropy-decoded into a coefficient
//! buffer, transformed into per-component sample strips, and handed to the
//! row stage (`rows.rs`), which converts, resizes and writes finished rows
//! straight into the caller's window. All working memory lives in a
//! [`DecodeScratch`]. [`JpegDecoder::decode`] is the same kernel delivering
//! at source geometry into a fresh [`Image`].
//!
//! Beyond the pixels, the decoder reports [`DecodeStats`] — MCU counts and
//! entropy-bit totals — which the discrete-event timing model uses to charge
//! cycle-accurate costs to the Huffman / iDCT / resize pipeline stages
//! without re-running the arithmetic.

use super::rows::{Planes, RowStage};
use super::scratch::{grown, CompTables, DecodeScratch, HuffSlot, RowBuffers, TableCache};
use super::{marker, ComponentSpec};
use crate::dct::{idct_8x8_dequant_u8, BLOCK_LEN, ZIGZAG};
use crate::error::{CodecError, CodecResult};
use crate::huffman::{
    decode_magnitude, entry_code_len, entry_run, entry_symbol, entry_total_len, entry_value,
    extend_magnitude, BitReader, BitReservoir, TableClass, MAX_CODE_LEN,
};
use crate::pixel::{ColorSpace, Image};
use std::cell::RefCell;
use std::time::Instant;

/// Most pixels a frame header may declare. A SOF0 is ten bytes of
/// attacker-controlled input that sizes every buffer downstream; 64 Mpx
/// (8192×8192) is far beyond any training image and keeps a one-image
/// [`JpegDecoder::decode`] below 200 MB.
pub(crate) const MAX_PIXELS: u64 = 1 << 26;

/// Work statistics gathered during a decode, consumed by the FPGA timing
/// model (`dlb-fpga::timing`) and — for the `*_ns` stage timers — by the
/// `codec.*` telemetry counters the backends export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Number of MCUs in the scan.
    pub mcus: u64,
    /// Total 8×8 blocks entropy-decoded.
    pub blocks: u64,
    /// Total bits consumed from the entropy-coded segment.
    pub entropy_bits: u64,
    /// Non-zero coefficients reconstructed (drives iDCT sparsity models).
    pub nonzero_coeffs: u64,
    /// Restart segments encountered (1 if no DRI).
    pub restart_segments: u32,
    /// Wall nanoseconds in Huffman entropy decoding. Only populated when
    /// [`JpegDecoder::with_stage_timing`] is enabled.
    pub huffman_ns: u64,
    /// Wall nanoseconds in dequantisation + inverse DCT (same caveats as
    /// [`DecodeStats::huffman_ns`]).
    pub idct_ns: u64,
    /// Wall nanoseconds in chroma upsampling + YCbCr→RGB conversion (same
    /// caveats as [`DecodeStats::huffman_ns`]).
    pub color_ns: u64,
    /// Wall nanoseconds in the resizer and the output-format step of
    /// [`JpegDecoder::decode_into`]; zero when rows are delivered at source
    /// geometry in the source's colour layout.
    pub resize_ns: u64,
}

impl DecodeStats {
    /// The fields that describe the *work done*, excluding the wall-clock
    /// stage timers — equal for any two decodes of the same stream
    /// regardless of delivery geometry, which is what the equivalence tests
    /// pin.
    pub fn work(&self) -> (u64, u64, u64, u64, u32) {
        (
            self.mcus,
            self.blocks,
            self.entropy_bits,
            self.nonzero_coeffs,
            self.restart_segments,
        )
    }
}

/// What [`JpegDecoder::decode_into`] delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Width of the delivered image in pixels.
    pub width: u32,
    /// Height of the delivered image in pixels.
    pub height: u32,
    /// Bytes written at the start of the output window.
    pub bytes: usize,
    /// Work counters and (when enabled) stage timers.
    pub stats: DecodeStats,
}

/// Baseline JPEG decoder.
///
/// The decoder is cheap to construct and `Sync`; one instance can serve
/// any number of threads. [`JpegDecoder::decode_into`] is the production
/// kernel; [`JpegDecoder::decode`] is the one-image convenience over it.
#[derive(Debug, Default, Clone)]
pub struct JpegDecoder {
    collect_timing: bool,
    #[cfg(test)]
    reference_idct: bool,
    reference_entropy: bool,
}

thread_local! {
    /// Scratch behind the one-image API, so `decode` in a loop reuses its
    /// tables and row buffers like a lane does.
    static THREAD_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

fn with_thread_scratch<T>(f: impl FnOnce(&mut DecodeScratch) -> T) -> T {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

impl JpegDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables per-stage wall-clock timing: the `*_ns` fields of
    /// [`DecodeStats`] are populated. Off by default. The clock is read per
    /// MCU row (three times, ≈70 reads for a 500×375 image) plus, when
    /// resizing, twice per source row: a few microseconds per image, under
    /// 1 % of decode time.
    pub fn with_stage_timing(mut self, on: bool) -> Self {
        self.collect_timing = on;
        self
    }

    /// Forces the direct O(8³) basis-matrix iDCT instead of the fast AAN
    /// transform: the oracle of the accuracy cross-checks.
    #[cfg(test)]
    fn with_reference_idct(mut self, on: bool) -> Self {
        self.reference_idct = on;
        self
    }

    /// Forces the original bit-at-a-time Huffman decoder instead of the
    /// reservoir + fused-table path. The two are bit-exact on the decoded
    /// pixels and work counters and fail with the same error on the same
    /// malformed stream; this switch exists so equivalence tests and
    /// benchmarks can compare them.
    pub fn with_reference_entropy(mut self, on: bool) -> Self {
        self.reference_entropy = on;
        self
    }

    /// Decodes a JFIF stream **into `out`**: `target` = `Some((w, h))`
    /// resizes to that geometry with the bilinear filter, `None` delivers at
    /// source geometry; `color` is the layout of the delivered pixels
    /// (grayscale sources replicate into RGB, colour sources reduce to luma
    /// after resizing). The image occupies the first [`Decoded::bytes`]
    /// bytes of `out`, row-major; `out` must be at least that long.
    ///
    /// Byte for byte this is [`JpegDecoder::decode`], then
    /// [`crate::resize::resize`] with [`crate::ResizeFilter::Bilinear`],
    /// then [`Image::to_rgb`] / [`Image::to_gray`] — without materialising
    /// any of the intermediate images, and without allocating once
    /// `scratch` has seen the geometry.
    ///
    /// On error the contents of `out` are unspecified (rows of *this* image
    /// decoded before the fault may have been written; nothing of an earlier
    /// image ever is).
    pub fn decode_into(
        &self,
        data: &[u8],
        scratch: &mut DecodeScratch,
        target: Option<(u32, u32)>,
        color: ColorSpace,
        out: &mut [u8],
    ) -> CodecResult<Decoded> {
        let result = self
            .plan(data, scratch, target, Some(color))
            .and_then(|plan| {
                let need = plan.stage.out_len();
                let have = out.len();
                let window = out
                    .get_mut(..need)
                    .ok_or_else(|| CodecError::InvalidArgument {
                        detail: format!("output window of {have} bytes cannot hold {need}"),
                    })?;
                self.run(data, scratch, plan, window)
            });
        scratch.release_if_oversized();
        result
    }

    /// Decodes a complete JFIF stream to an interleaved [`Image`]
    /// (RGB for colour scans, grayscale for single-component scans).
    pub fn decode(&self, data: &[u8]) -> CodecResult<Image> {
        self.decode_with_stats(data).map(|(img, _)| img)
    }

    /// Decodes and additionally reports workload statistics. The one-image
    /// API: source geometry, source colour layout, fresh buffer,
    /// thread-local scratch.
    pub fn decode_with_stats(&self, data: &[u8]) -> CodecResult<(Image, DecodeStats)> {
        with_thread_scratch(|scratch| {
            let result = self.plan(data, scratch, None, None).and_then(|plan| {
                let color = plan.color;
                let mut pixels = vec![0u8; plan.stage.out_len()];
                let decoded = self.run(data, scratch, plan, &mut pixels)?;
                let image = Image::from_vec(decoded.width, decoded.height, color, pixels)?;
                Ok((image, decoded.stats))
            });
            scratch.release_if_oversized();
            result
        })
    }

    /// Parses the headers into the scratch's table cache and plans the
    /// delivery. `color` = `None` keeps the source's layout. Touches no
    /// pixel and, beyond the row buffers, sizes nothing: the caller learns
    /// the output length before committing memory to it.
    fn plan(
        &self,
        data: &[u8],
        scratch: &mut DecodeScratch,
        target: Option<(u32, u32)>,
        color: Option<ColorSpace>,
    ) -> CodecResult<Plan> {
        let (frame, scan_start) = parse_headers(data, &mut scratch.tables)?;
        let color = color.unwrap_or(if frame.ncomp == 1 {
            ColorSpace::Gray
        } else {
            ColorSpace::Rgb
        });
        let stage = RowStage::new(&frame, target, color, &mut scratch.rows)?;
        Ok(Plan {
            frame,
            scan_start,
            color,
            stage,
        })
    }

    /// Decodes the scan of a planned image into `out` (exactly
    /// `plan.stage.out_len()` bytes).
    fn run(
        &self,
        data: &[u8],
        scratch: &mut DecodeScratch,
        plan: Plan,
        out: &mut [u8],
    ) -> CodecResult<Decoded> {
        let Plan {
            frame,
            scan_start,
            mut stage,
            ..
        } = plan;
        let DecodeScratch {
            tables,
            segments,
            coeffs,
            strips,
            rows,
        } = scratch;
        let resolve = |spec: &ComponentSpec| -> CodecResult<Comp<'_>> {
            Ok(Comp {
                spec: *spec,
                tables: tables.resolve(spec)?,
            })
        };
        let mut comps = [resolve(&frame.components()[0])?; 3];
        for (slot, spec) in comps.iter_mut().zip(frame.components()).skip(1) {
            *slot = resolve(spec)?;
        }
        let scan = Scan::index(data, scan_start, &frame, segments)?;
        let mut stats = DecodeStats {
            restart_segments: scan.segments.len() as u32,
            ..DecodeStats::default()
        };
        let ctx = ScanCtx {
            dec: self,
            frame: &frame,
            comps: &comps[..frame.ncomp],
            scan,
        };
        if self.reference_entropy {
            ctx.run_streaming::<BitReader<'_>>(coeffs, strips, &mut stage, rows, out, &mut stats)?;
        } else {
            ctx.run_streaming::<BitReservoir<'_>>(
                coeffs, strips, &mut stage, rows, out, &mut stats,
            )?;
        }
        let (w, h) = stage.out_dims();
        Ok(Decoded {
            width: w as u32,
            height: h as u32,
            bytes: out.len(),
            stats,
        })
    }
}

/// A parsed image ready to be decoded: what [`JpegDecoder::plan`] hands
/// [`JpegDecoder::run`].
struct Plan {
    frame: Frame,
    /// Offset of the first entropy-coded byte.
    scan_start: usize,
    /// Layout of the delivered pixels.
    color: ColorSpace,
    stage: RowStage,
}

// ---------------------------------------------------------------------------
// Header parsing
// ---------------------------------------------------------------------------

fn read_u16(data: &[u8], pos: usize, context: &'static str) -> CodecResult<u16> {
    data.get(pos..pos + 2)
        .map(|b| u16::from_be_bytes([b[0], b[1]]))
        .ok_or(CodecError::UnexpectedEof { context })
}

/// Frame-level metadata parsed from the JFIF headers (a baseline frame has
/// one or three components).
#[derive(Debug, Clone, Copy)]
pub(super) struct Frame {
    pub(super) width: u32,
    pub(super) height: u32,
    pub(super) ncomp: usize,
    comps: [ComponentSpec; 3],
    restart_interval: u16,
}

impl Frame {
    /// Scan components in order.
    pub(super) fn components(&self) -> &[ComponentSpec] {
        &self.comps[..self.ncomp]
    }

    /// (h_max, v_max) across components.
    pub(super) fn max_sampling(&self) -> (usize, usize) {
        let comps = self.components();
        (
            comps.iter().map(|c| c.h as usize).max().unwrap_or(1),
            comps.iter().map(|c| c.v as usize).max().unwrap_or(1),
        )
    }

    /// MCU grid dimensions (columns, rows).
    fn mcu_grid(&self) -> (u32, u32) {
        let (h, v) = self.max_sampling();
        (
            self.width.div_ceil(8 * h as u32),
            self.height.div_ceil(8 * v as u32),
        )
    }

    /// Total number of MCUs in the scan.
    fn mcu_count(&self) -> u64 {
        let (c, r) = self.mcu_grid();
        c as u64 * r as u64
    }

    /// 8×8 blocks per MCU across all components.
    fn blocks_per_mcu(&self) -> usize {
        self.components()
            .iter()
            .map(|c| c.h as usize * c.v as usize)
            .sum()
    }
}

/// Parses the header section, applying every DHT/DQT to `tables`. Returns
/// the frame and the offset of the first entropy-coded byte.
fn parse_headers(data: &[u8], tables: &mut TableCache) -> CodecResult<(Frame, usize)> {
    if data.len() < 4 || data[0] != 0xFF || data[1] != marker::SOI {
        return Err(CodecError::MalformedSegment {
            detail: "missing SOI".into(),
        });
    }
    tables.begin_image();
    let mut pos = 2usize;
    let mut frame: Option<Frame> = None;
    let mut restart_interval = 0u16;

    loop {
        // Seek to the next marker, tolerating fill bytes (0xFF runs).
        while pos < data.len() && data[pos] != 0xFF {
            pos += 1;
        }
        while pos < data.len() && data[pos] == 0xFF {
            pos += 1;
        }
        if pos >= data.len() {
            return Err(CodecError::UnexpectedEof {
                context: "marker stream",
            });
        }
        let m = data[pos];
        pos += 1;
        match m {
            marker::EOI => {
                return Err(CodecError::MalformedSegment {
                    detail: "EOI before SOS".into(),
                })
            }
            marker::SOS => {
                let len = read_u16(data, pos, "SOS length")? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(CodecError::UnexpectedEof {
                        context: "SOS payload",
                    })?;
                let mut frame = frame.ok_or_else(|| CodecError::MalformedSegment {
                    detail: "SOS before SOF0".into(),
                })?;
                parse_sos(seg, &mut frame)?;
                frame.restart_interval = restart_interval;
                return Ok((frame, pos + len));
            }
            marker::SOF0 => {
                let len = read_u16(data, pos, "SOF0 length")? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(CodecError::UnexpectedEof {
                        context: "SOF0 payload",
                    })?;
                frame = Some(parse_sof0(seg)?);
                pos += len;
            }
            0xC1..=0xCF if m != marker::DHT && m != 0xC8 => {
                return Err(CodecError::Unsupported {
                    feature: format!("non-baseline frame marker 0xFF{m:02X}"),
                });
            }
            marker::DQT => {
                let len = read_u16(data, pos, "DQT length")? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(CodecError::UnexpectedEof {
                        context: "DQT payload",
                    })?;
                parse_dqt(seg, tables)?;
                pos += len;
            }
            marker::DHT => {
                let len = read_u16(data, pos, "DHT length")? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(CodecError::UnexpectedEof {
                        context: "DHT payload",
                    })?;
                parse_dht(seg, tables)?;
                pos += len;
            }
            marker::DRI => {
                let len = read_u16(data, pos, "DRI length")? as usize;
                restart_interval = read_u16(data, pos + 2, "DRI interval")?;
                pos += len;
            }
            // APPn / COM and any other length-prefixed segment: skip.
            0xE0..=0xEF | marker::COM | 0xF0..=0xFD => {
                let len = read_u16(data, pos, "segment length")? as usize;
                pos += len;
            }
            other => {
                return Err(CodecError::InvalidMarker {
                    marker: other,
                    context: "header section",
                });
            }
        }
    }
}

fn parse_sof0(seg: &[u8]) -> CodecResult<Frame> {
    if seg.len() < 6 {
        return Err(CodecError::MalformedSegment {
            detail: "SOF0 too short".into(),
        });
    }
    let precision = seg[0];
    if precision != 8 {
        return Err(CodecError::Unsupported {
            feature: format!("{precision}-bit precision"),
        });
    }
    let height = u16::from_be_bytes([seg[1], seg[2]]) as u32;
    let width = u16::from_be_bytes([seg[3], seg[4]]) as u32;
    let ncomp = seg[5] as usize;
    // Only the two JFIF interpretations exist: 1 component (grayscale) and
    // 3 (YCbCr). A 2-component frame has no defined color model — and the
    // row-based assembler indexes Y/Cb/Cr unconditionally.
    if ncomp != 1 && ncomp != 3 {
        return Err(CodecError::Unsupported {
            feature: format!("{ncomp}-component frame"),
        });
    }
    if seg.len() < 6 + 3 * ncomp {
        return Err(CodecError::MalformedSegment {
            detail: "SOF0 component list truncated".into(),
        });
    }
    // Checked here, before anything is sized from the header.
    if width == 0 || height == 0 || width as u64 * height as u64 > MAX_PIXELS {
        return Err(CodecError::UnsupportedDimensions { width, height });
    }
    let mut comps = [ComponentSpec {
        id: 0,
        h: 1,
        v: 1,
        qtable: 0,
        dc_table: 0,
        ac_table: 0,
    }; 3];
    for (i, comp) in comps.iter_mut().enumerate().take(ncomp) {
        let b = &seg[6 + 3 * i..9 + 3 * i];
        let h = b[1] >> 4;
        let v = b[1] & 0x0F;
        if !(1..=2).contains(&h) || !(1..=2).contains(&v) {
            return Err(CodecError::Unsupported {
                feature: format!("sampling factors {h}x{v}"),
            });
        }
        if b[2] > 3 {
            return Err(CodecError::MalformedSegment {
                detail: format!("component quant slot {}", b[2]),
            });
        }
        *comp = ComponentSpec {
            id: b[0],
            h,
            v,
            qtable: b[2],
            dc_table: 0,
            ac_table: 0,
        };
    }
    Ok(Frame {
        width,
        height,
        ncomp,
        comps,
        restart_interval: 0,
    })
}

fn parse_sos(seg: &[u8], frame: &mut Frame) -> CodecResult<()> {
    if seg.is_empty() {
        return Err(CodecError::MalformedSegment {
            detail: "empty SOS".into(),
        });
    }
    let ncomp = seg[0] as usize;
    if ncomp != frame.ncomp {
        return Err(CodecError::MalformedSegment {
            detail: format!("SOS has {ncomp} components, frame has {}", frame.ncomp),
        });
    }
    if seg.len() < 1 + 2 * ncomp + 3 {
        return Err(CodecError::MalformedSegment {
            detail: "SOS truncated".into(),
        });
    }
    for i in 0..ncomp {
        let id = seg[1 + 2 * i];
        let tables = seg[2 + 2 * i];
        let comp = frame.comps[..ncomp]
            .iter_mut()
            .find(|c| c.id == id)
            .ok_or_else(|| CodecError::MalformedSegment {
                detail: format!("SOS references unknown component id {id}"),
            })?;
        comp.dc_table = tables >> 4;
        comp.ac_table = tables & 0x0F;
        if comp.dc_table > 3 || comp.ac_table > 3 {
            return Err(CodecError::MalformedSegment {
                detail: format!(
                    "SOS table slots dc={} ac={} out of range",
                    comp.dc_table, comp.ac_table
                ),
            });
        }
    }
    Ok(())
}

fn parse_dqt(mut seg: &[u8], tables: &mut TableCache) -> CodecResult<()> {
    while !seg.is_empty() {
        let pq = seg[0] >> 4;
        let tq = (seg[0] & 0x0F) as usize;
        if pq != 0 {
            return Err(CodecError::Unsupported {
                feature: "16-bit quantization tables".into(),
            });
        }
        if tq > 3 {
            return Err(CodecError::MalformedSegment {
                detail: format!("DQT slot {tq}"),
            });
        }
        if seg.len() < 65 {
            return Err(CodecError::MalformedSegment {
                detail: "DQT table truncated".into(),
            });
        }
        let raw: &[u8; BLOCK_LEN] = seg[1..65].try_into().expect("64-byte slice");
        tables.define_quant(tq, raw)?;
        seg = &seg[65..];
    }
    Ok(())
}

fn parse_dht(mut seg: &[u8], tables: &mut TableCache) -> CodecResult<()> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(CodecError::MalformedSegment {
                detail: "DHT header truncated".into(),
            });
        }
        let class = seg[0] >> 4;
        let slot = (seg[0] & 0x0F) as usize;
        if class > 1 || slot > 3 {
            return Err(CodecError::MalformedSegment {
                detail: format!("DHT class {class} slot {slot}"),
            });
        }
        let mut counts = [0u8; MAX_CODE_LEN];
        counts.copy_from_slice(&seg[1..17]);
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if seg.len() < 17 + total {
            return Err(CodecError::MalformedSegment {
                detail: "DHT symbols truncated".into(),
            });
        }
        let class = if class == 0 {
            TableClass::Dc
        } else {
            TableClass::Ac
        };
        tables.define_huffman(class, slot, counts, &seg[17..17 + total])?;
        seg = &seg[17 + total..];
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Restart-segment index
// ---------------------------------------------------------------------------

/// One pre-scan pass over the entropy-coded data, appending the byte
/// range of every restart segment to `segments`.
///
/// The scan is **stuffing-aware**: a `0xFF 0x00` pair is entropy data
/// (a stuffed `0xFF` byte), never a marker — so a stuffed byte adjacent
/// to a boundary can't be mistaken for (or hide) a restart marker, and
/// each input byte is examined exactly once instead of the old per-
/// boundary linear hunt from the bit-reader's resync position.
///
/// Marker ordering is validated here (`RSTn` must cycle `RST0..RST7`),
/// before any segment is entropy-decoded.
fn index_restart_segments(
    scan: &[u8],
    expected_segments: usize,
    segments: &mut Vec<(usize, usize)>,
) -> CodecResult<()> {
    let mut seg_start = 0usize;
    let mut p = 0usize;
    while segments.len() + 1 < expected_segments {
        if p + 1 >= scan.len() {
            return Err(CodecError::UnexpectedEof {
                context: "restart marker",
            });
        }
        if scan[p] != 0xFF {
            p += 1;
            continue;
        }
        let m = scan[p + 1];
        if m == 0x00 {
            p += 2; // stuffed data byte
            continue;
        }
        if !marker::is_rst(m) {
            return Err(CodecError::InvalidMarker {
                marker: m,
                context: "restart boundary",
            });
        }
        let expected = marker::RST0 + (segments.len() as u8 & 7);
        if m != expected {
            return Err(CodecError::MalformedSegment {
                detail: format!(
                    "restart marker out of order: got {m:02X}, expected {expected:02X}"
                ),
            });
        }
        segments.push((seg_start, p));
        p += 2;
        seg_start = p;
    }
    // Final segment: everything up to the trailing marker (EOI) or end of
    // data; the bit reader stops at markers on its own.
    segments.push((seg_start, scan.len()));
    Ok(())
}

// ---------------------------------------------------------------------------
// Scan decoding
// ---------------------------------------------------------------------------

/// One scan component with its resolved tables.
#[derive(Clone, Copy)]
struct Comp<'t> {
    spec: ComponentSpec,
    tables: CompTables<'t>,
}

/// The entropy-coded data of a frame and where its restart segments lie.
struct Scan<'d> {
    bytes: &'d [u8],
    /// Byte range of each restart segment within `bytes` (one trivial
    /// segment when the stream has no restart interval).
    segments: &'d [(usize, usize)],
    /// Restart interval in MCUs (0 = none).
    ri: u64,
    total_mcus: u64,
}

impl<'d> Scan<'d> {
    /// Locates the restart segments, reusing `index` as storage.
    fn index(
        data: &'d [u8],
        scan_start: usize,
        frame: &Frame,
        index: &'d mut Vec<(usize, usize)>,
    ) -> CodecResult<Self> {
        let bytes = &data[scan_start..];
        let ri = frame.restart_interval as u64;
        let total_mcus = frame.mcu_count();
        index.clear();
        if ri > 0 {
            index_restart_segments(bytes, total_mcus.div_ceil(ri) as usize, index)?;
        } else {
            index.push((0, bytes.len()));
        }
        Ok(Self {
            bytes,
            segments: index,
            ri,
            total_mcus,
        })
    }

    /// MCUs covered by segment `si`.
    fn segment_mcus(&self, si: usize) -> u64 {
        if self.ri == 0 {
            self.total_mcus
        } else {
            self.ri.min(self.total_mcus - si as u64 * self.ri)
        }
    }
}

/// A source of entropy-decoded blocks over one restart segment: the
/// production reservoir or the bit-at-a-time reference.
trait BlockReader<'d> {
    fn over(segment: &'d [u8]) -> Self;

    /// Decodes one 8×8 block into raster-order quantised coefficients
    /// (`out` arrives zeroed), updating the DC predictor and the non-zero
    /// count. Both implementations resolve the same symbols, apply the same
    /// checks in the same order and so fail alike.
    fn block(
        &mut self,
        dc: &HuffSlot,
        ac: &HuffSlot,
        dc_pred: &mut i32,
        out: &mut [i16; BLOCK_LEN],
        nonzero: &mut u64,
    ) -> CodecResult<()>;

    /// Byte offset of the next unread input byte.
    fn position(&self) -> usize;
}

const EOF_IN_SCAN: CodecError = CodecError::UnexpectedEof {
    context: "entropy-coded segment",
};

fn dc_category_error(ssss: u32) -> CodecError {
    CodecError::MalformedSegment {
        detail: format!("DC category {ssss}"),
    }
}

fn ac_overflow_error(k: usize) -> CodecError {
    CodecError::MalformedSegment {
        detail: format!("AC run overflows block at k={k}"),
    }
}

impl<'d> BlockReader<'d> for BitReader<'d> {
    fn over(segment: &'d [u8]) -> Self {
        BitReader::new(segment)
    }

    fn block(
        &mut self,
        dc: &HuffSlot,
        ac: &HuffSlot,
        dc_pred: &mut i32,
        out: &mut [i16; BLOCK_LEN],
        nonzero: &mut u64,
    ) -> CodecResult<()> {
        // DC.
        let ssss = dc.table.decode(self)? as u32;
        if ssss > 11 {
            return Err(dc_category_error(ssss));
        }
        let diff = if ssss > 0 {
            decode_magnitude(self.get_bits(ssss)?, ssss)
        } else {
            0
        };
        *dc_pred += diff;
        out[0] = *dc_pred as i16;
        if *dc_pred != 0 {
            *nonzero += 1;
        }

        // AC.
        let mut k = 1usize;
        while k < BLOCK_LEN {
            let rs = ac.table.decode(self)?;
            let run = (rs >> 4) as usize;
            let size = (rs & 0x0F) as u32;
            if size == 0 {
                if run == 15 {
                    k += 16; // ZRL
                    continue;
                }
                break; // EOB
            }
            k += run;
            if k >= BLOCK_LEN {
                return Err(ac_overflow_error(k));
            }
            let v = decode_magnitude(self.get_bits(size)?, size);
            out[ZIGZAG[k]] = v as i16;
            *nonzero += 1;
            k += 1;
        }
        Ok(())
    }

    fn position(&self) -> usize {
        self.byte_pos()
    }
}

impl<'d> BlockReader<'d> for BitReservoir<'d> {
    fn over(segment: &'d [u8]) -> Self {
        BitReservoir::new(segment)
    }

    /// One refill check and one table load per symbol: the fused entry
    /// yields run, total length and the sign-extended coefficient together.
    /// Entries that carry only the code (EOB, ZRL, magnitudes too long for
    /// the window) and table misses (codes longer than the window) take the
    /// general path, which extracts the magnitude bits from the same peeked
    /// word. Checks run in the reference decoder's order — end of stream at
    /// the code, run overflow, end of stream at the magnitude — so a
    /// malformed stream fails with the same error on both.
    #[inline]
    fn block(
        &mut self,
        dc: &HuffSlot,
        ac: &HuffSlot,
        dc_pred: &mut i32,
        out: &mut [i16; BLOCK_LEN],
        nonzero: &mut u64,
    ) -> CodecResult<()> {
        // DC.
        self.refill();
        let e = dc.lut.lookup(self.peek());
        let total = entry_total_len(e);
        let diff = if total != 0 {
            if total > self.bits_left() {
                return Err(EOF_IN_SCAN);
            }
            self.consume(total);
            entry_value(e)
        } else {
            let (sym, len) = if e != 0 {
                (entry_symbol(e), entry_code_len(e))
            } else {
                dc.table.resolve_long(self.peek())?
            };
            if len > self.bits_left() {
                return Err(EOF_IN_SCAN);
            }
            let ssss = sym as u32;
            if ssss > 11 {
                return Err(dc_category_error(ssss));
            }
            if ssss == 0 {
                self.consume(len);
                0
            } else {
                if len + ssss > self.bits_left() {
                    return Err(EOF_IN_SCAN);
                }
                let bits = ((self.peek() << len) >> (64 - ssss)) as u32;
                self.consume(len + ssss);
                extend_magnitude(bits, ssss)
            }
        };
        *dc_pred += diff;
        out[0] = *dc_pred as i16;
        if *dc_pred != 0 {
            *nonzero += 1;
        }

        // AC.
        let mut k = 1usize;
        while k < BLOCK_LEN {
            self.refill();
            let e = ac.lut.lookup(self.peek());
            let total = entry_total_len(e);
            if total != 0 {
                let at = k + entry_run(e);
                if total > self.bits_left() || at >= BLOCK_LEN {
                    return Err(if entry_code_len(e) > self.bits_left() {
                        EOF_IN_SCAN
                    } else if at >= BLOCK_LEN {
                        ac_overflow_error(at)
                    } else {
                        EOF_IN_SCAN
                    });
                }
                self.consume(total);
                out[ZIGZAG[at]] = entry_value(e) as i16;
                *nonzero += 1;
                k = at + 1;
                continue;
            }
            let (rs, len) = if e != 0 {
                (entry_symbol(e), entry_code_len(e))
            } else {
                ac.table.resolve_long(self.peek())?
            };
            if len > self.bits_left() {
                return Err(EOF_IN_SCAN);
            }
            let run = (rs >> 4) as usize;
            let size = (rs & 0x0F) as u32;
            if size == 0 {
                self.consume(len);
                if run == 15 {
                    k += 16; // ZRL
                    continue;
                }
                break; // EOB
            }
            k += run;
            if k >= BLOCK_LEN {
                return Err(ac_overflow_error(k));
            }
            if len + size > self.bits_left() {
                return Err(EOF_IN_SCAN);
            }
            let bits = ((self.peek() << len) >> (64 - size)) as u32;
            self.consume(len + size);
            out[ZIGZAG[k]] = extend_magnitude(bits, size) as i16;
            *nonzero += 1;
            k += 1;
        }
        Ok(())
    }

    fn position(&self) -> usize {
        self.byte_pos()
    }
}

/// Entropy decoding of consecutive MCUs across restart segments: a reader
/// over the current segment, the DC predictors, and how many MCUs the
/// segment still holds. Resumable, so the streaming decoder can stop at
/// every MCU row.
struct EntropyWalk<'s, 'd, R> {
    scan: &'s Scan<'d>,
    /// Segment being read (index into `scan.segments`).
    segment: usize,
    reader: R,
    left_in_segment: u64,
    dc_pred: [i32; 3],
}

impl<'s, 'd, R: BlockReader<'d>> EntropyWalk<'s, 'd, R> {
    /// Starts at the first MCU of the scan.
    fn start(scan: &'s Scan<'d>) -> Self {
        let (s, e) = scan.segments[0];
        Self {
            scan,
            segment: 0,
            reader: R::over(&scan.bytes[s..e]),
            left_in_segment: scan.segment_mcus(0),
            dc_pred: [0; 3],
        }
    }

    /// Decodes the next `count` MCUs into `coeffs` (block after block, in
    /// scan order), crossing into following segments as they run out.
    fn decode(
        &mut self,
        comps: &[Comp<'_>],
        count: u64,
        coeffs: &mut [i16],
        stats: &mut DecodeStats,
    ) -> CodecResult<()> {
        let mut blocks = coeffs.chunks_exact_mut(BLOCK_LEN);
        for _ in 0..count {
            if self.left_in_segment == 0 {
                self.next_segment(stats);
            }
            for (ci, c) in comps.iter().enumerate() {
                for _ in 0..c.spec.h * c.spec.v {
                    let block: &mut [i16; BLOCK_LEN] = blocks
                        .next()
                        .expect("coefficient buffer sized for the run")
                        .try_into()
                        .expect("BLOCK_LEN chunk");
                    block.fill(0);
                    self.reader.block(
                        c.tables.dc,
                        c.tables.ac,
                        &mut self.dc_pred[ci],
                        block,
                        &mut stats.nonzero_coeffs,
                    )?;
                    stats.blocks += 1;
                }
            }
            stats.mcus += 1;
            self.left_in_segment -= 1;
        }
        Ok(())
    }

    fn next_segment(&mut self, stats: &mut DecodeStats) {
        stats.entropy_bits += self.reader.position() as u64 * 8;
        self.segment += 1;
        let (s, e) = self.scan.segments[self.segment];
        if let Some(&(next, _)) = self.scan.segments.get(self.segment + 1) {
            // Overlap the following segment's bytes with this one's work.
            crate::simd::prefetch_read(self.scan.bytes, next);
        }
        self.reader = R::over(&self.scan.bytes[s..e]);
        self.left_in_segment = self.scan.segment_mcus(self.segment);
        self.dc_pred = [0; 3];
    }

    /// Books the last segment's consumption.
    fn finish(self, stats: &mut DecodeStats) {
        stats.entropy_bits += self.reader.position() as u64 * 8;
    }
}

/// Splits the `spent` nanoseconds of one row-stage push between the colour
/// and resize timers: a stage that neither resizes nor converts is colour
/// conversion only; otherwise it reported its colour share itself.
fn book_row_stage(stats: &mut DecodeStats, stage: &RowStage, spent: u64, color_ns: u64) {
    if stage.reshapes() {
        stats.color_ns += color_ns;
        stats.resize_ns += spent.saturating_sub(color_ns);
    } else {
        stats.color_ns += spent;
    }
}

/// Writes one reconstructed block at (`bx`, `by`) of a plane.
#[inline]
fn write_block(plane: &mut [u8], stride: usize, bx: usize, by: usize, samples: &[u8; BLOCK_LEN]) {
    for (y, row) in samples.chunks_exact(8).enumerate() {
        plane[(by + y) * stride + bx..][..8].copy_from_slice(row);
    }
}

/// Everything fixed for the duration of one scan.
struct ScanCtx<'a, 'd> {
    dec: &'a JpegDecoder,
    frame: &'a Frame,
    comps: &'a [Comp<'a>],
    scan: Scan<'d>,
}

impl<'d> ScanCtx<'_, 'd> {
    /// Dequantises and inverse-transforms the blocks of `count` MCUs
    /// starting at MCU `first`, handing each to
    /// `sink(component, block x px, block y px, samples)`.
    fn transform(
        &self,
        coeffs: &[i16],
        first: u64,
        count: u64,
        sink: &mut impl FnMut(usize, usize, usize, &[u8; BLOCK_LEN]),
    ) {
        let mcu_cols = self.frame.mcu_grid().0 as u64;
        let mut blocks = coeffs.chunks_exact(BLOCK_LEN);
        let mut samples = [0u8; BLOCK_LEN];
        for mcu in first..first + count {
            let (mx, my) = ((mcu % mcu_cols) as usize, (mcu / mcu_cols) as usize);
            for (ci, c) in self.comps.iter().enumerate() {
                let (h, v) = (c.spec.h as usize, c.spec.v as usize);
                for vy in 0..v {
                    for hx in 0..h {
                        let block: &[i16; BLOCK_LEN] = blocks
                            .next()
                            .expect("coefficient buffer sized for the run")
                            .try_into()
                            .expect("BLOCK_LEN chunk");
                        #[cfg(test)]
                        if self.dec.reference_idct {
                            let mut dequantized = [0f32; BLOCK_LEN];
                            let mut spatial = [0f32; BLOCK_LEN];
                            c.tables.quant.table.dequantize(block, &mut dequantized);
                            crate::dct::idct_8x8(&dequantized, &mut spatial);
                            for (o, &s) in samples.iter_mut().zip(&spatial) {
                                *o = crate::pixel::clamp_u8(s + 128.0);
                            }
                            sink(ci, (mx * h + hx) * 8, (my * v + vy) * 8, &samples);
                            continue;
                        }
                        idct_8x8_dequant_u8(block, &c.tables.quant.idct_scale, &mut samples);
                        sink(ci, (mx * h + hx) * 8, (my * v + vy) * 8, &samples);
                    }
                }
            }
        }
    }

    /// The streaming kernel: per MCU row, entropy-decode into `coeffs`,
    /// transform into the per-component `strips`, hand the strips to the row
    /// stage. The three phases are timed per MCU row when stage timing is
    /// on.
    fn run_streaming<R: BlockReader<'d>>(
        &self,
        coeffs: &mut Vec<i16>,
        strips: &mut [Vec<u8>; 3],
        stage: &mut RowStage,
        rows: &mut RowBuffers,
        out: &mut [u8],
        stats: &mut DecodeStats,
    ) -> CodecResult<()> {
        let (mcu_cols, mcu_rows) = self.frame.mcu_grid();
        let mcu_h = 8 * self.frame.max_sampling().1;
        let per_row = mcu_cols as u64;
        let coeffs = grown(
            coeffs,
            mcu_cols as usize * self.frame.blocks_per_mcu() * BLOCK_LEN,
        );
        let mut stride = [0usize; 3];
        for ((strip, stride), c) in strips.iter_mut().zip(&mut stride).zip(self.comps) {
            *stride = mcu_cols as usize * c.spec.h as usize * 8;
            grown(strip, *stride * c.spec.v as usize * 8);
        }
        let timing = self.dec.collect_timing;
        let mut walk = EntropyWalk::<R>::start(&self.scan);
        let mut mark = timing.then(Instant::now);
        // Nanoseconds since `mark`, which advances to now.
        let lap = |mark: &mut Option<Instant>| -> u64 {
            mark.as_mut().map_or(0, |m| {
                let now = Instant::now();
                let ns = (now - *m).as_nanos() as u64;
                *m = now;
                ns
            })
        };
        for my in 0..mcu_rows as usize {
            walk.decode(self.comps, per_row, coeffs, stats)?;
            stats.huffman_ns += lap(&mut mark);
            self.transform(
                coeffs,
                my as u64 * per_row,
                per_row,
                &mut |ci, bx, by, s| {
                    // A strip holds one MCU row: 8·v sample rows.
                    let local = by % (8 * self.comps[ci].spec.v as usize);
                    write_block(&mut strips[ci], stride[ci], bx, local, s);
                },
            );
            stats.idct_ns += lap(&mut mark);
            let planes = Planes {
                data: [&strips[0][..], &strips[1][..], &strips[2][..]],
                stride,
                base_y: my * mcu_h,
            };
            let color_ns = stage.push(&planes, (my + 1) * mcu_h, rows, out, timing);
            book_row_stage(stats, stage, lap(&mut mark), color_ns);
        }
        walk.finish(stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::encoder::JpegEncoder;
    use crate::jpeg::ChromaMode;

    fn psnr(a: &Image, b: &Image) -> f64 {
        assert_eq!(a.byte_len(), b.byte_len());
        let mse: f64 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            / a.byte_len() as f64;
        if mse == 0.0 {
            return f64::INFINITY;
        }
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }

    fn test_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h, ColorSpace::Rgb).unwrap();
        for y in 0..h {
            for x in 0..w {
                // Smooth content plus mild structure: JPEG-friendly.
                let r = (128.0 + 100.0 * ((x as f32) * 0.07).sin()) as u8;
                let g = (128.0 + 100.0 * ((y as f32) * 0.05).cos()) as u8;
                let b = ((x + y) / 2 % 256) as u8;
                img.set_pixel(x, y, [r, g, b]);
            }
        }
        img
    }

    #[test]
    fn roundtrip_420_high_quality() {
        let img = test_image(64, 48);
        let bytes = JpegEncoder::new(92).unwrap().encode(&img).unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        assert_eq!(out.width(), 64);
        assert_eq!(out.height(), 48);
        assert_eq!(out.color(), ColorSpace::Rgb);
        let p = psnr(&img, &out);
        assert!(p > 28.0, "PSNR {p:.1} dB too low for q92 4:2:0");
    }

    #[test]
    fn roundtrip_444_is_sharper_than_420() {
        let img = test_image(48, 48);
        let enc444 = JpegEncoder::new(90)
            .unwrap()
            .with_mode(ChromaMode::Yuv444)
            .encode(&img)
            .unwrap();
        let enc420 = JpegEncoder::new(90).unwrap().encode(&img).unwrap();
        let dec = JpegDecoder::new();
        let p444 = psnr(&img, &dec.decode(&enc444).unwrap());
        let p420 = psnr(&img, &dec.decode(&enc420).unwrap());
        assert!(p444 >= p420 - 0.5, "444 {p444:.1} vs 420 {p420:.1}");
    }

    #[test]
    fn roundtrip_grayscale() {
        let img = test_image(40, 40).to_gray();
        let bytes = JpegEncoder::new(90).unwrap().encode(&img).unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        assert_eq!(out.color(), ColorSpace::Gray);
        let p = psnr(&img, &out);
        assert!(p > 30.0, "grayscale PSNR {p:.1}");
    }

    #[test]
    fn roundtrip_nonmultiple_dimensions() {
        for (w, h) in [(17, 13), (15, 9), (31, 33), (8, 8), (1, 1), (3, 50)] {
            let img = test_image(w, h);
            let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
            let out = JpegDecoder::new().decode(&bytes).unwrap();
            assert_eq!((out.width(), out.height()), (w, h), "{w}x{h}");
        }
    }

    #[test]
    fn roundtrip_with_restart_intervals() {
        let img = test_image(64, 64);
        let plain = JpegEncoder::new(88).unwrap().encode(&img).unwrap();
        let restarts = JpegEncoder::new(88)
            .unwrap()
            .with_restart_interval(2)
            .encode(&img)
            .unwrap();
        let dec = JpegDecoder::new();
        let a = dec.decode(&plain).unwrap();
        let b = dec.decode(&restarts).unwrap();
        // Restart intervals change framing, not pixels.
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn header_decode_reports_geometry() {
        let img = test_image(100, 60);
        let bytes = JpegEncoder::new(80)
            .unwrap()
            .with_restart_interval(5)
            .encode(&img)
            .unwrap();
        let (frame, _) = parse_headers(&bytes, &mut DecodeScratch::new().tables).unwrap();
        assert_eq!((frame.width, frame.height), (100, 60));
        assert_eq!(frame.restart_interval, 5);
        assert_eq!(frame.ncomp, 3);
        assert_eq!(frame.max_sampling(), (2, 2), "4:2:0 by default");
    }

    #[test]
    fn stats_are_plausible() {
        let img = test_image(64, 48);
        let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let (_, stats) = JpegDecoder::new().decode_with_stats(&bytes).unwrap();
        // 64x48 at 4:2:0 → 4x3 MCUs, 6 blocks each.
        assert_eq!(stats.mcus, 12);
        assert_eq!(stats.blocks, 72);
        assert!(stats.entropy_bits > 0);
        assert!(stats.nonzero_coeffs > stats.blocks); // DC + some AC
        assert_eq!(stats.restart_segments, 1);
    }

    #[test]
    fn rejects_garbage() {
        let dec = JpegDecoder::new();
        assert!(dec.decode(&[]).is_err());
        assert!(dec.decode(&[0x00, 0x01, 0x02]).is_err());
        assert!(dec.decode(&[0xFF, 0xD8, 0xFF, 0xD9]).is_err()); // EOI before SOS
    }

    #[test]
    fn rejects_progressive() {
        // Fake a SOF2 (progressive) frame.
        let mut bytes = vec![
            0xFF, 0xD8, 0xFF, 0xC2, 0x00, 0x0B, 8, 0, 8, 0, 8, 1, 1, 0x11, 0,
        ];
        bytes.extend_from_slice(&[0xFF, 0xD9]);
        let err = JpegDecoder::new().decode(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn truncated_scan_errors() {
        let img = test_image(64, 64);
        let mut bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(JpegDecoder::new().decode(&bytes).is_err());
    }

    #[test]
    fn corrupted_entropy_detected_or_contained() {
        // Flipping bytes mid-scan must never panic; it may decode to garbage
        // pixels or error, both acceptable.
        let img = test_image(48, 48);
        let clean = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        for step in [3usize, 7, 11] {
            let mut bytes = clean.clone();
            let start = bytes.len() / 2;
            let mut i = start;
            while i < bytes.len() - 2 {
                bytes[i] ^= 0x55;
                i += step;
            }
            let _ = JpegDecoder::new().decode(&bytes);
        }
    }

    #[test]
    fn segment_index_handles_stuffed_bytes() {
        // Entropy data containing a stuffed 0xFF (encoded as FF 00)
        // immediately before a restart marker — the old per-boundary hunt
        // could misread this; the one-pass index must not.
        let scan = [
            0xAB, 0xFF, 0x00, 0xCD, // segment 0, incl. stuffed byte
            0xFF, 0xD0, // RST0
            0xFF, 0x00, 0xFF, 0xD1, // segment 1 ends with stuffing, RST1
            0x12, 0x34, // segment 2
        ];
        let mut segs = Vec::new();
        index_restart_segments(&scan, 3, &mut segs).unwrap();
        assert_eq!(segs, vec![(0, 4), (6, 8), (10, 12)]);
    }

    #[test]
    fn segment_index_rejects_out_of_order_markers() {
        let scan = [0xAB, 0xFF, 0xD3, 0x12]; // RST3 where RST0 is expected
        let err = index_restart_segments(&scan, 2, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CodecError::MalformedSegment { .. }), "{err}");
    }

    #[test]
    fn segment_index_rejects_non_restart_marker() {
        let scan = [0xAB, 0xFF, 0xD9, 0x12]; // EOI where a RST is expected
        let err = index_restart_segments(&scan, 2, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CodecError::InvalidMarker { .. }), "{err}");
    }

    #[test]
    fn segment_index_eof_when_markers_missing() {
        let scan = [0xAB, 0xCD, 0x12, 0x34]; // no markers at all
        let err = index_restart_segments(&scan, 2, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn frame_geometry_per_chroma_mode() {
        // (mode, width, height, max sampling, MCU grid, blocks per MCU)
        let cases = [
            (ChromaMode::Yuv444, 17, 9, (1, 1), (3, 2), 3),
            (ChromaMode::Yuv422, 33, 17, (2, 1), (3, 3), 4),
            (ChromaMode::Yuv420, 33, 17, (2, 2), (3, 2), 6),
            (ChromaMode::Grayscale, 8, 8, (1, 1), (1, 1), 1),
        ];
        let mut scratch = DecodeScratch::new();
        for (mode, w, h, sampling, grid, blocks) in cases {
            let img = match mode {
                ChromaMode::Grayscale => test_image(w, h).to_gray(),
                _ => test_image(w, h),
            };
            let bytes = JpegEncoder::new(85)
                .unwrap()
                .with_mode(mode)
                .encode(&img)
                .unwrap();
            let (frame, _) = parse_headers(&bytes, &mut scratch.tables).unwrap();
            assert_eq!(frame.max_sampling(), sampling, "{mode:?}");
            assert_eq!(frame.mcu_grid(), grid, "{mode:?}");
            assert_eq!(frame.mcu_count(), u64::from(grid.0 * grid.1), "{mode:?}");
            assert_eq!(frame.blocks_per_mcu(), blocks, "{mode:?}");
        }
    }

    #[test]
    fn fast_and_reference_idct_agree_on_pixels() {
        // The AAN path runs inside the accuracy contract of the reference
        // transform: after quantisation and u8 clamping the reconstructions
        // should differ by at most 1 LSB on a small minority of pixels.
        let img = test_image(64, 64);
        let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let fast = JpegDecoder::new().decode(&bytes).unwrap();
        let reference = JpegDecoder::new()
            .with_reference_idct(true)
            .decode(&bytes)
            .unwrap();
        let mut diff = 0usize;
        for (&a, &b) in fast.data().iter().zip(reference.data()) {
            let d = (a as i32 - b as i32).unsigned_abs();
            assert!(d <= 1, "pixel differs by {d}");
            diff += (d != 0) as usize;
        }
        assert!(
            diff * 20 < fast.byte_len(),
            "{diff} of {} pixels off by one",
            fast.byte_len()
        );
    }

    #[test]
    fn stage_timing_populates_counters() {
        let img = test_image(64, 48);
        let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let (_, stats) = JpegDecoder::new()
            .with_stage_timing(true)
            .decode_with_stats(&bytes)
            .unwrap();
        assert!(stats.huffman_ns > 0);
        assert!(stats.idct_ns > 0);
        assert!(stats.color_ns > 0);
        assert_eq!(stats.resize_ns, 0, "source geometry: no resize work");
        // The resizing kernel splits its row stage into colour and resize.
        let mut out = vec![0u8; 20 * 20 * 3];
        let timed = JpegDecoder::new()
            .with_stage_timing(true)
            .decode_into(
                &bytes,
                &mut DecodeScratch::new(),
                Some((20, 20)),
                ColorSpace::Rgb,
                &mut out,
            )
            .unwrap()
            .stats;
        assert!(timed.color_ns > 0 && timed.resize_ns > 0, "{timed:?}");
        // Untimed decode leaves them zero.
        let (_, bare) = JpegDecoder::new().decode_with_stats(&bytes).unwrap();
        assert_eq!(bare.huffman_ns, 0);
        assert_eq!(bare.idct_ns, 0);
        assert_eq!(bare.color_ns, 0);
        assert_eq!(bare.resize_ns, 0);
    }

    #[test]
    fn fast_and_reference_entropy_are_bit_exact() {
        // The reservoir/LUT decoder must reproduce the bit-at-a-time
        // decoder's pixels and work counters exactly. `entropy_bits` is
        // excluded: it reports the reader's byte position, and the two
        // readers buffer ahead differently at segment ends.
        let fast = JpegDecoder::new();
        let reference = JpegDecoder::new().with_reference_entropy(true);
        for mode in [ChromaMode::Yuv444, ChromaMode::Yuv422, ChromaMode::Yuv420] {
            for ri in [0u16, 1, 4] {
                let img = test_image(49, 37);
                let bytes = JpegEncoder::new(85)
                    .unwrap()
                    .with_mode(mode)
                    .with_restart_interval(ri)
                    .encode(&img)
                    .unwrap();
                let (a, sa) = fast.decode_with_stats(&bytes).unwrap();
                let (b, sb) = reference.decode_with_stats(&bytes).unwrap();
                assert_eq!(a.data(), b.data(), "{mode:?} ri={ri}");
                assert_eq!(sa.mcus, sb.mcus, "{mode:?} ri={ri}");
                assert_eq!(sa.blocks, sb.blocks, "{mode:?} ri={ri}");
                assert_eq!(sa.nonzero_coeffs, sb.nonzero_coeffs, "{mode:?} ri={ri}");
                assert_eq!(sa.restart_segments, sb.restart_segments, "{mode:?} ri={ri}");
            }
        }
    }

    #[test]
    fn fast_entropy_rejects_malformed_streams_like_reference() {
        // Corrupted scans must fail (or succeed) without panicking on both
        // entropy decoders; when the reference path errors on a truncation,
        // the fast path must too.
        let img = test_image(48, 48);
        let clean = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let fast = JpegDecoder::new();
        let reference = JpegDecoder::new().with_reference_entropy(true);
        for cut in [clean.len() / 3, clean.len() / 2, clean.len() - 4] {
            let mut bytes = clean.clone();
            bytes.truncate(cut);
            assert!(fast.decode(&bytes).is_err(), "cut={cut}");
            assert!(reference.decode(&bytes).is_err(), "cut={cut}");
        }
        for step in [3usize, 7, 11] {
            let mut bytes = clean.clone();
            let mut i = bytes.len() / 2;
            while i < bytes.len() - 2 {
                bytes[i] ^= 0x55;
                i += step;
            }
            let _ = fast.decode(&bytes);
            let _ = reference.decode(&bytes);
        }
    }

    #[test]
    fn roundtrip_422() {
        let img = test_image(50, 38);
        let bytes = JpegEncoder::new(90)
            .unwrap()
            .with_mode(ChromaMode::Yuv422)
            .encode(&img)
            .unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        assert_eq!((out.width(), out.height()), (50, 38));
        let p = psnr(&img, &out);
        assert!(p > 28.0, "PSNR {p:.1} dB too low for q90 4:2:2");
    }

    /// `bytes` without its segments of marker `m`.
    fn strip_segments(bytes: &[u8], m: u8) -> Vec<u8> {
        let mut out = bytes[..2].to_vec();
        let mut pos = 2;
        while bytes[pos + 1] != marker::SOS {
            let len = u16::from_be_bytes([bytes[pos + 2], bytes[pos + 3]]) as usize;
            if bytes[pos + 1] != m {
                out.extend_from_slice(&bytes[pos..pos + 2 + len]);
            }
            pos += 2 + len;
        }
        out.extend_from_slice(&bytes[pos..]);
        out
    }

    #[test]
    fn oversized_header_is_refused_before_anything_is_sized() {
        // A 65535×65535 frame in a stream of a few hundred bytes.
        let img = test_image(16, 16);
        let mut bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let sof = bytes
            .windows(2)
            .position(|w| w == [0xFF, marker::SOF0])
            .unwrap();
        bytes[sof + 5..sof + 9].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]);
        let dec = JpegDecoder::new();
        let mut scratch = DecodeScratch::new();
        let mut out = [0u8; 16];
        let err = dec
            .decode_into(&bytes, &mut scratch, None, ColorSpace::Rgb, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            CodecError::UnsupportedDimensions {
                width: 65535,
                height: 65535
            }
        );
        assert_eq!(scratch.buffer_bytes(), 0);
        assert!(matches!(
            dec.decode(&bytes),
            Err(CodecError::UnsupportedDimensions { .. })
        ));
        let header = |bytes: &[u8]| parse_headers(bytes, &mut DecodeScratch::new().tables);
        assert!(matches!(
            header(&bytes),
            Err(CodecError::UnsupportedDimensions { .. })
        ));
        // The cap itself: 8192×8192 passes the header, one row more does not.
        bytes[sof + 5..sof + 9].copy_from_slice(&[0x20, 0x00, 0x20, 0x00]);
        assert_eq!(header(&bytes).unwrap().0.width, 8192);
        bytes[sof + 5..sof + 9].copy_from_slice(&[0x20, 0x01, 0x20, 0x00]);
        assert!(header(&bytes).is_err());
    }

    #[test]
    fn scratch_keeps_ordinary_buffers_and_releases_oversized_ones() {
        let dec = JpegDecoder::new();
        let mut scratch = DecodeScratch::new();
        let small = JpegEncoder::new(85)
            .unwrap()
            .encode(&test_image(64, 48))
            .unwrap();
        let mut out = vec![0u8; 32 * 32 * 3];
        dec.decode_into(
            &small,
            &mut scratch,
            Some((32, 32)),
            ColorSpace::Rgb,
            &mut out,
        )
        .unwrap();
        let held = scratch.buffer_bytes();
        assert!(held > 0 && held < 64 << 10, "{held}");
        dec.decode_into(
            &small,
            &mut scratch,
            Some((32, 32)),
            ColorSpace::Rgb,
            &mut out,
        )
        .unwrap();
        assert_eq!(scratch.buffer_bytes(), held, "same geometry, same buffers");

        // A 24 000-pixel-wide strip needs over a megabyte of row buffers:
        // they serve the call and are gone after it.
        let wide = JpegEncoder::new(85)
            .unwrap()
            .encode(&test_image(24_000, 8))
            .unwrap();
        let reference = dec.decode(&wide).unwrap();
        let mut big = vec![0u8; 24_000 * 8 * 3];
        dec.decode_into(&wide, &mut scratch, None, ColorSpace::Rgb, &mut big)
            .unwrap();
        assert_eq!(big, reference.data());
        assert_eq!(scratch.buffer_bytes(), 0);
        // And the scratch still works.
        dec.decode_into(
            &small,
            &mut scratch,
            Some((32, 32)),
            ColorSpace::Rgb,
            &mut out,
        )
        .unwrap();
        assert_eq!(scratch.buffer_bytes(), held);
    }

    #[test]
    fn tables_of_an_earlier_image_are_not_visible_to_the_next() {
        let dec = JpegDecoder::new();
        let mut scratch = DecodeScratch::new();
        let full = JpegEncoder::new(85)
            .unwrap()
            .encode(&test_image(32, 32))
            .unwrap();
        let mut out = vec![0u8; 32 * 32 * 3];
        dec.decode_into(&full, &mut scratch, None, ColorSpace::Rgb, &mut out)
            .unwrap();
        for m in [marker::DHT, marker::DQT] {
            let err = dec
                .decode_into(
                    &strip_segments(&full, m),
                    &mut scratch,
                    None,
                    ColorSpace::Rgb,
                    &mut out,
                )
                .unwrap_err();
            assert!(
                matches!(&err, CodecError::MalformedSegment { detail } if detail.contains("missing")),
                "{err}"
            );
        }
        // The cached tables are intact and serve the next complete image.
        let mut again = vec![0u8; 32 * 32 * 3];
        dec.decode_into(&full, &mut scratch, None, ColorSpace::Rgb, &mut again)
            .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn a_failed_image_exposes_nothing_of_the_previous_one() {
        // Decode A, then a truncated B of the same geometry with the same
        // scratch into a zeroed window: whatever rows B managed to deliver
        // are B's own, bit for bit, and everything after them is untouched.
        let dec = JpegDecoder::new();
        let mut scratch = DecodeScratch::new();
        let enc = JpegEncoder::new(90).unwrap();
        let a = enc.clone().encode(&test_image(96, 80)).unwrap();
        let mut img_b = test_image(96, 80);
        for y in 0..80 {
            for x in 0..96 {
                img_b.set_pixel(x, y, [(x * 2) as u8, (255 - y * 3) as u8, 77]);
            }
        }
        let b = enc.encode(&img_b).unwrap();
        let b_pixels = dec.decode(&b).unwrap();
        let mut window = vec![0u8; 96 * 80 * 3];
        dec.decode_into(&a, &mut scratch, None, ColorSpace::Rgb, &mut window)
            .unwrap();
        for cut in [b.len() / 4, b.len() / 2, b.len() - 3] {
            window.fill(0);
            assert!(dec
                .decode_into(&b[..cut], &mut scratch, None, ColorSpace::Rgb, &mut window)
                .is_err());
            let written = window.len() - window.iter().rev().take_while(|&&v| v == 0).count();
            let rows = written.div_ceil(96 * 3);
            assert_eq!(
                window[..rows * 96 * 3],
                b_pixels.data()[..rows * 96 * 3],
                "cut {cut}"
            );
            assert!(window[rows * 96 * 3..].iter().all(|&v| v == 0));
        }
    }
}
