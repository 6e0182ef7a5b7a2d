//! Reusable working memory of the decode kernel.
//!
//! Everything the kernel needs between the compressed bytes and the output
//! window lives here and is reused from image to image: the Huffman and
//! quantisation tables (rebuilt only when an image's DHT/DQT payload differs
//! from the one that built them), the restart-segment index, one MCU row of
//! coefficients, one MCU row of samples per component, and the row buffers
//! of the colour/resize stage. After the first image of a geometry a decode
//! allocates nothing.

use super::ComponentSpec;
use crate::dct::{BLOCK_LEN, ZIGZAG};
use crate::error::{CodecError, CodecResult};
use crate::huffman::{FusedLut, HuffTable, TableClass, MAX_CODE_LEN};
use crate::quant::QuantTable;
use crate::resize::XTaps;

/// A scratch holding more than this after a decode is dropped back to empty
/// instead of being kept: one hostile or freak image (a 60 000-pixel-wide
/// panorama needs ≈8 MB of row buffers) must not pin its footprint for the
/// lifetime of the lane that happened to decode it. Ordinary images — up to
/// roughly 8 000 pixels wide — stay below it and keep their buffers.
const RETAIN_LIMIT_BYTES: usize = 1 << 20;

/// Per-thread working memory for [`super::decoder::JpegDecoder::decode_into`].
///
/// Create one per decoding thread and pass it to every call. It carries no
/// pixels from one image to the next that a later decode could expose: every
/// buffer is fully rewritten before it is read.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    pub(super) tables: TableCache,
    /// Byte range of every restart segment of the current scan.
    pub(super) segments: Vec<(usize, usize)>,
    /// Quantised coefficients of one MCU row, block after block.
    pub(super) coeffs: Vec<i16>,
    /// Reconstructed samples of one MCU row per component, padded to whole
    /// MCUs.
    pub(super) strips: [Vec<u8>; 3],
    pub(super) rows: RowBuffers,
}

impl DecodeScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently held by the per-image buffers (the table cache,
    /// a fixed ≈70 KiB once warm, is not counted).
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.coeffs.capacity() * 2
            + self.strips.iter().map(Vec::capacity).sum::<usize>()
            + self.rows.heap_bytes()
    }

    /// Frees the per-image buffers if the last image left them oversized.
    pub(super) fn release_if_oversized(&mut self) {
        if self.buffer_bytes() > RETAIN_LIMIT_BYTES {
            self.segments = Vec::new();
            self.coeffs = Vec::new();
            self.strips = Default::default();
            self.rows = RowBuffers::default();
        }
    }
}

/// Grows `v` to at least `n` elements (never shrinks) and returns the first
/// `n`. Contents are unspecified: callers overwrite before reading.
pub(super) fn grown<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// Row buffers of the colour / resize / format stage.
#[derive(Debug, Default)]
pub(super) struct RowBuffers {
    /// Horizontally upsampled row of each subsampled component.
    pub(super) comp_rows: [Vec<u8>; 3],
    /// One source row in the source's colour layout, plus one pad byte so
    /// the tap kernel may read four bytes at the last pixel.
    pub(super) src_row: Vec<u8>,
    pub(super) taps: XTaps,
    /// The two horizontally-lerped rows the vertical pass blends, plus one
    /// pad float each for the tap kernel's four-lane store.
    pub(super) slots: [Vec<f32>; 2],
    /// One resized row before output-format conversion.
    pub(super) out_row: Vec<u8>,
}

impl RowBuffers {
    fn heap_bytes(&self) -> usize {
        self.comp_rows.iter().map(Vec::capacity).sum::<usize>()
            + self.src_row.capacity()
            + self.taps.heap_bytes()
            + self.slots.iter().map(|s| s.capacity() * 4).sum::<usize>()
            + self.out_row.capacity()
    }
}

/// One cached Huffman table: the canonical table (validation, the reference
/// decoder, long codes) and the fused lookup built from it.
#[derive(Debug)]
pub(super) struct HuffSlot {
    pub(super) table: HuffTable,
    pub(super) lut: FusedLut,
    /// Image (cache epoch) that last defined this slot.
    epoch: u64,
}

/// One cached quantisation table with its AAN-folded multipliers.
#[derive(Debug)]
pub(super) struct QuantSlot {
    /// The 64 zigzag-order bytes of the DQT payload that built this slot.
    raw: [u8; BLOCK_LEN],
    /// The reference iDCT's dequantiser (tests only).
    #[cfg(test)]
    pub(super) table: QuantTable,
    pub(super) idct_scale: [f32; BLOCK_LEN],
    epoch: u64,
}

/// The four DC, four AC and four quantisation slots a baseline stream may
/// define. A slot survives from image to image, but only counts as defined
/// for the image whose headers named it: `epoch` advances per image, and a
/// DHT/DQT segment whose payload equals the slot's just re-stamps it.
#[derive(Debug, Default)]
pub(super) struct TableCache {
    epoch: u64,
    dc: [Option<HuffSlot>; 4],
    ac: [Option<HuffSlot>; 4],
    quant: [Option<QuantSlot>; 4],
}

impl TableCache {
    /// Starts a new image: nothing defined by earlier images is visible.
    pub(super) fn begin_image(&mut self) {
        self.epoch += 1;
    }

    /// Applies one table of a DHT segment.
    pub(super) fn define_huffman(
        &mut self,
        class: TableClass,
        slot: usize,
        counts: [u8; MAX_CODE_LEN],
        symbols: &[u8],
    ) -> CodecResult<()> {
        let epoch = self.epoch;
        let entry = match class {
            TableClass::Dc => &mut self.dc[slot],
            TableClass::Ac => &mut self.ac[slot],
        };
        match entry {
            Some(s) if *s.table.counts() == counts && s.table.symbols() == symbols => {
                s.epoch = epoch;
            }
            _ => {
                let table = HuffTable::new(counts, symbols)?;
                // Keep the old slot's lookup allocation when there is one.
                let mut lut = entry.take().map_or_else(FusedLut::empty, |s| s.lut);
                lut.rebuild(&table, class);
                *entry = Some(HuffSlot { table, lut, epoch });
            }
        }
        Ok(())
    }

    /// Applies one table of a DQT segment (`raw` in zigzag order).
    pub(super) fn define_quant(&mut self, slot: usize, raw: &[u8; BLOCK_LEN]) -> CodecResult<()> {
        let epoch = self.epoch;
        match &mut self.quant[slot] {
            Some(s) if s.raw == *raw => s.epoch = epoch,
            entry => {
                // Values arrive in zigzag order; store raster order.
                let mut vals = [0u16; BLOCK_LEN];
                for (zz, &raster) in ZIGZAG.iter().enumerate() {
                    vals[raster] = raw[zz] as u16;
                }
                let table = QuantTable::new(vals)?;
                let idct_scale = table.idct_scale();
                *entry = Some(QuantSlot {
                    raw: *raw,
                    #[cfg(test)]
                    table,
                    idct_scale,
                    epoch,
                });
            }
        }
        Ok(())
    }

    /// The tables `spec` selects, if this image defined them.
    pub(super) fn resolve(&self, spec: &ComponentSpec) -> CodecResult<CompTables<'_>> {
        let epoch = self.epoch;
        let missing = |what: &str, slot: u8| CodecError::MalformedSegment {
            detail: format!("missing {what} slot {slot}"),
        };
        let quant = self.quant[spec.qtable as usize]
            .as_ref()
            .filter(|s| s.epoch == epoch)
            .ok_or_else(|| missing("DQT", spec.qtable))?;
        let dc = self.dc[spec.dc_table as usize]
            .as_ref()
            .filter(|s| s.epoch == epoch)
            .ok_or_else(|| missing("DC DHT", spec.dc_table))?;
        let ac = self.ac[spec.ac_table as usize]
            .as_ref()
            .filter(|s| s.epoch == epoch)
            .ok_or_else(|| missing("AC DHT", spec.ac_table))?;
        Ok(CompTables { quant, dc, ac })
    }
}

/// The resolved tables of one scan component.
#[derive(Debug, Clone, Copy)]
pub(super) struct CompTables<'t> {
    pub(super) quant: &'t QuantSlot,
    pub(super) dc: &'t HuffSlot,
    pub(super) ac: &'t HuffSlot,
}
