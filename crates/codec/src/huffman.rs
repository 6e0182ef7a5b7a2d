//! Bit-level I/O and canonical JPEG Huffman coding.
//!
//! This is the functional core of the workload DLBooster offloads: the paper's
//! FPGA decoder dedicates a 4-way Huffman unit to it because entropy decoding
//! is the serial bottleneck of JPEG decode. The implementation covers:
//!
//! * [`BitWriter`] / [`BitReader`] with JPEG `0xFF 0x00` byte stuffing,
//! * canonical table construction from (BITS, HUFFVAL) per T.81 Annex C,
//! * the standard Annex K.3 DC/AC tables,
//! * the production decode path: a 64-bit `BitReservoir` over a per-table
//!   `FusedLut` whose entries carry run, total length and the sign-extended
//!   coefficient, with the canonical walk as fallback.

use crate::error::{CodecError, CodecResult};

/// Maximum JPEG Huffman code length in bits.
pub(crate) const MAX_CODE_LEN: usize = 16;

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

/// MSB-first bit writer with JPEG byte stuffing (`0xFF` → `0xFF 0x00`).
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `len` bits of `bits`, MSB first. `len` may be 0.
    pub fn put_bits(&mut self, bits: u32, len: u32) {
        debug_assert!(len <= 24, "len {len} too large for accumulator");
        debug_assert!(len == 32 || bits < (1u32 << len.max(1)) || len == 0);
        self.acc = (self.acc << len) | (bits & ((1u64 << len) as u32).wrapping_sub(1));
        self.nbits += len;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xFF) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // byte stuffing
            }
            self.nbits -= 8;
        }
    }

    /// Pads the final partial byte with 1-bits (T.81 F.1.2.3) and returns the
    /// stuffed entropy-coded byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put_bits((1u32 << pad) - 1, pad);
        }
        self.out
    }
}

/// MSB-first bit reader that undoes JPEG byte stuffing and stops at markers.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps an entropy-coded segment (without the trailing marker).
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) -> CodecResult<()> {
        while self.nbits <= 24 {
            if self.pos >= self.data.len() {
                // At end of data, feed 1-padding so a final partial code can
                // still be rejected by table lookup rather than EOF here;
                // genuine overruns surface as InvalidHuffmanCode or explicit
                // EOF from `ensure_bits`.
                return Ok(());
            }
            let byte = self.data[self.pos];
            if byte == 0xFF {
                match self.data.get(self.pos + 1) {
                    Some(0x00) => {
                        self.pos += 2; // stuffed 0xFF data byte
                        self.acc = (self.acc << 8) | 0xFF;
                        self.nbits += 8;
                    }
                    // A restart or terminating marker: stop feeding bits.
                    _ => return Ok(()),
                }
            } else {
                self.pos += 1;
                self.acc = (self.acc << 8) | byte as u32;
                self.nbits += 8;
            }
        }
        Ok(())
    }

    /// Peeks up to 16 bits (left-aligned in the low bits of the return
    /// value); missing trailing bits are 1-filled.
    #[inline]
    pub(crate) fn peek_bits(&mut self, len: u32) -> CodecResult<u32> {
        debug_assert!(len <= 16);
        self.refill()?;
        if self.nbits >= len {
            Ok((self.acc >> (self.nbits - len)) & ((1u32 << len) - 1))
        } else {
            // 1-fill the tail.
            let have = self.nbits;
            let missing = len - have;
            let head = if have == 0 {
                0
            } else {
                self.acc & ((1u32 << have) - 1)
            };
            Ok((head << missing) | ((1u32 << missing) - 1))
        }
    }

    /// Consumes `len` bits previously peeked.
    #[inline]
    pub(crate) fn consume(&mut self, len: u32) -> CodecResult<()> {
        if self.nbits < len {
            return Err(CodecError::UnexpectedEof {
                context: "entropy-coded segment",
            });
        }
        self.nbits -= len;
        Ok(())
    }

    /// Reads `len` bits as an unsigned value.
    #[inline]
    pub fn get_bits(&mut self, len: u32) -> CodecResult<u32> {
        if len == 0 {
            return Ok(0);
        }
        self.refill()?;
        if self.nbits < len {
            return Err(CodecError::UnexpectedEof {
                context: "entropy-coded segment",
            });
        }
        let v = (self.acc >> (self.nbits - len)) & ((1u32 << len) - 1);
        self.nbits -= len;
        Ok(v)
    }

    /// Byte offset of the next unread input byte (for marker resync).
    pub(crate) fn byte_pos(&self) -> usize {
        self.pos - (self.nbits as usize).div_ceil(8)
    }
}

/// Real bits the reservoir holds before a symbol is resolved (unless the
/// segment is exhausted): one symbol consumes at most a 16-bit code plus 15
/// magnitude bits, so 33 always covers it.
const REFILL_BELOW: u32 = 33;

/// 64-bit MSB-aligned bit reservoir over one entropy-coded segment.
///
/// Bit 63 of `acc` is the next bit of the stream and the top `nbits` bits
/// are accounted stream bits. [`BitReservoir::refill`] is called only when
/// fewer than 33 remain and then loads eight bytes at once: if none of them
/// is `0xFF` (no stuffing, no marker) the word is OR-ed in below the live
/// bits and `pos` advances by the whole bytes that fit. The bits of the
/// partial byte beyond `nbits` are true look-ahead — the next load ORs the
/// same values over them — so they need no masking. A word containing
/// `0xFF` takes the byte loop, which undoes stuffing and stops at a marker
/// or the end of the data; from then on the reservoir is 1-filled below the
/// real bits, exactly as [`BitReader::peek_bits`] pads, so a final partial
/// code resolves to the same symbol on both decoders and running out of
/// real bits is the one end-of-stream test.
#[derive(Debug)]
pub(crate) struct BitReservoir<'a> {
    data: &'a [u8],
    /// Next unread input byte (counts stuffed zero bytes).
    pos: usize,
    acc: u64,
    nbits: u32,
    /// Set once a marker (or the end of the data) stopped the refill.
    end: bool,
}

/// Whether any byte of `w` equals `0xFF` (SWAR zero-byte test on the
/// complement).
#[inline]
fn word_has_ff(w: u64) -> bool {
    let v = !w;
    v.wrapping_sub(0x0101_0101_0101_0101) & !v & 0x8080_8080_8080_8080 != 0
}

impl<'a> BitReservoir<'a> {
    /// Wraps an entropy-coded segment (without the trailing marker).
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
            end: false,
        }
    }

    /// Tops the reservoir up when fewer than 33 real bits remain. Afterwards
    /// either at least 33 real bits are buffered or the segment is exhausted
    /// and the bits below the real ones are 1s.
    #[inline(always)]
    pub(crate) fn refill(&mut self) {
        if self.nbits >= REFILL_BELOW {
            return;
        }
        if let Some(chunk) = self.data.get(self.pos..self.pos + 8) {
            let w = u64::from_be_bytes(chunk.try_into().expect("8-byte slice"));
            if !word_has_ff(w) {
                self.acc |= w >> self.nbits;
                let take = (63 - self.nbits) >> 3;
                self.pos += take as usize;
                self.nbits += take << 3;
                return;
            }
        }
        self.refill_bytes();
    }

    /// Stuffing- and marker-aware byte loop; also the only place the end of
    /// the segment is detected.
    #[cold]
    fn refill_bytes(&mut self) {
        // Drop the bulk path's look-ahead: with a 0xFF ahead, raw bytes and
        // stream bits no longer line up.
        self.acc &= !(u64::MAX >> self.nbits);
        while self.nbits <= 56 && !self.end {
            match self.data.get(self.pos) {
                None => self.end = true,
                Some(&0xFF) => match self.data.get(self.pos + 1) {
                    Some(&0x00) => {
                        self.acc |= 0xFFu64 << (56 - self.nbits);
                        self.nbits += 8;
                        self.pos += 2;
                    }
                    // Restart/terminating marker (or dangling 0xFF at EOF).
                    _ => self.end = true,
                },
                Some(&b) => {
                    self.acc |= (b as u64) << (56 - self.nbits);
                    self.nbits += 8;
                    self.pos += 1;
                }
            }
        }
        if self.end {
            // `end` is only ever set with nbits <= 56, and bits are only
            // consumed afterwards.
            self.acc |= u64::MAX >> self.nbits;
        }
    }

    /// The next 64 bits of the stream, MSB-aligned. Valid for one symbol
    /// (31 bits) after [`BitReservoir::refill`].
    #[inline(always)]
    pub(crate) fn peek(&self) -> u64 {
        self.acc
    }

    /// Real bits currently buffered.
    #[inline(always)]
    pub(crate) fn bits_left(&self) -> u32 {
        self.nbits
    }

    /// Drops `n` bits the caller has checked against
    /// [`BitReservoir::bits_left`].
    #[inline(always)]
    pub(crate) fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits && n < 64);
        self.acc <<= n;
        self.nbits -= n;
    }

    /// Byte offset of the next unread input byte.
    pub(crate) fn byte_pos(&self) -> usize {
        self.pos - (self.nbits as usize).div_ceil(8)
    }
}

// ---------------------------------------------------------------------------
// Canonical tables
// ---------------------------------------------------------------------------

/// A canonical Huffman code table built from (BITS, HUFFVAL) as in T.81.
///
/// Supports both encoding (symbol → code) and decoding (bits → symbol) with a
/// single-level 16-bit lookup acceleration table.
#[derive(Debug, Clone)]
pub struct HuffTable {
    /// `counts[l]` = number of codes of length `l+1`.
    counts: [u8; MAX_CODE_LEN],
    /// Symbols in canonical order.
    symbols: Vec<u8>,
    /// Encoder: symbol → (code, length). Length 0 means absent.
    enc_code: [u16; 256],
    enc_len: [u8; 256],
    /// Decoder acceleration: for each 8-bit prefix, (symbol, code length) if
    /// a code of ≤8 bits matches; length 0 otherwise.
    fast: Box<[(u8, u8); 256]>,
    /// Canonical decode bounds per length: min code, max code, index of first
    /// symbol. Entries are valid only where `counts > 0`.
    min_code: [i32; MAX_CODE_LEN + 1],
    max_code: [i32; MAX_CODE_LEN + 1],
    val_ptr: [usize; MAX_CODE_LEN + 1],
}

impl HuffTable {
    /// Builds a table from the per-length code counts and the symbol list.
    pub fn new(counts: [u8; MAX_CODE_LEN], symbols: &[u8]) -> CodecResult<Self> {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if total != symbols.len() {
            return Err(CodecError::MalformedSegment {
                detail: format!(
                    "Huffman table declares {total} codes but provides {} symbols",
                    symbols.len()
                ),
            });
        }
        if total == 0 || total > 256 {
            return Err(CodecError::MalformedSegment {
                detail: format!("Huffman table has {total} codes (must be 1..=256)"),
            });
        }

        // Canonical code assignment (T.81 C.2): codes of each length are
        // consecutive; moving to the next length left-shifts by one.
        let mut enc_code = [0u16; 256];
        let mut enc_len = [0u8; 256];
        let mut min_code = [0i32; MAX_CODE_LEN + 1];
        let mut max_code = [-1i32; MAX_CODE_LEN + 1];
        let mut val_ptr = [0usize; MAX_CODE_LEN + 1];

        let mut code: u32 = 0;
        let mut k = 0usize;
        for len in 1..=MAX_CODE_LEN {
            let n = counts[len - 1] as usize;
            if n > 0 {
                val_ptr[len] = k;
                min_code[len] = code as i32;
                for _ in 0..n {
                    if code >= (1u32 << len) {
                        return Err(CodecError::MalformedSegment {
                            detail: format!("Huffman code overflow at length {len}"),
                        });
                    }
                    let sym = symbols[k];
                    if enc_len[sym as usize] != 0 {
                        return Err(CodecError::MalformedSegment {
                            detail: format!("duplicate Huffman symbol {sym}"),
                        });
                    }
                    enc_code[sym as usize] = code as u16;
                    enc_len[sym as usize] = len as u8;
                    code += 1;
                    k += 1;
                }
                max_code[len] = code as i32 - 1;
            }
            code <<= 1;
        }

        // Fast 8-bit prefix decode table.
        let mut fast = Box::new([(0u8, 0u8); 256]);
        let mut k = 0usize;
        let mut code: u32 = 0;
        for len in 1..=8usize {
            let n = counts[len - 1] as usize;
            for _ in 0..n {
                let prefix = (code << (8 - len)) as usize;
                let fill = 1usize << (8 - len);
                for entry in fast.iter_mut().skip(prefix).take(fill) {
                    *entry = (symbols[k], len as u8);
                }
                code += 1;
                k += 1;
            }
            code <<= 1;
        }

        Ok(Self {
            counts,
            symbols: symbols.to_vec(),
            enc_code,
            enc_len,
            fast,
            min_code,
            max_code,
            val_ptr,
        })
    }

    /// Per-length code counts (the DHT `BITS` array).
    pub(crate) fn counts(&self) -> &[u8; MAX_CODE_LEN] {
        &self.counts
    }

    /// Symbols in canonical order (the DHT `HUFFVAL` array).
    pub(crate) fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Encodes one symbol into the writer.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: u8) -> CodecResult<()> {
        let len = self.enc_len[symbol as usize];
        if len == 0 {
            return Err(CodecError::InvalidArgument {
                detail: format!("symbol {symbol} not present in Huffman table"),
            });
        }
        w.put_bits(self.enc_code[symbol as usize] as u32, len as u32);
        Ok(())
    }

    /// Code length in bits for `symbol`, or `None` if absent: the encoder's
    /// view of the table, which the decode-table tests check against.
    #[cfg(test)]
    fn code_len(&self, symbol: u8) -> Option<u32> {
        match self.enc_len[symbol as usize] {
            0 => None,
            l => Some(l as u32),
        }
    }

    /// Decodes one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> CodecResult<u8> {
        // Fast path: 8-bit prefix lookup.
        let prefix = r.peek_bits(8)?;
        let (sym, len) = self.fast[prefix as usize];
        if len != 0 {
            r.consume(len as u32)?;
            return Ok(sym);
        }
        // Slow canonical path for codes of 9..=16 bits.
        let code = r.peek_bits(MAX_CODE_LEN as u32)? as i32;
        for len in 9..=MAX_CODE_LEN {
            let c = code >> (MAX_CODE_LEN - len);
            if self.max_code[len] >= 0 && c <= self.max_code[len] && c >= self.min_code[len] {
                let idx = self.val_ptr[len] + (c - self.min_code[len]) as usize;
                let sym = self.symbols[idx];
                r.consume(len as u32)?;
                return Ok(sym);
            }
        }
        Err(CodecError::InvalidHuffmanCode)
    }

    /// Canonical walk for the codes a [`FusedLut`] does not hold: resolves
    /// the code of more than [`LUT_BITS`] bits at the top of a 64-bit
    /// MSB-aligned peek, returning `(symbol, code_length)`. By
    /// canonical-prefix uniqueness this is what [`HuffTable::decode`] would
    /// return for the same bit pattern.
    #[cold]
    pub(crate) fn resolve_long(&self, peeked: u64) -> CodecResult<(u8, u32)> {
        let code = (peeked >> 48) as i32;
        for len in (LUT_BITS as usize + 1)..=MAX_CODE_LEN {
            let c = code >> (MAX_CODE_LEN - len);
            if self.max_code[len] >= 0 && c <= self.max_code[len] && c >= self.min_code[len] {
                let idx = self.val_ptr[len] + (c - self.min_code[len]) as usize;
                return Ok((self.symbols[idx], len as u32));
            }
        }
        Err(CodecError::InvalidHuffmanCode)
    }
}

// ---------------------------------------------------------------------------
// Fused decode table
// ---------------------------------------------------------------------------

/// Index width of a [`FusedLut`] in bits.
///
/// Measured on the benchmark corpus (≈500×375, q92, standard tables,
/// ≈72k AC symbols per image): at 9 bits 85.3 % of AC symbols resolve to a
/// fused entry and 3.6 % miss the table; at 10 bits 89.9 % / 1.8 %; at 11
/// bits 90.9 % / 0.9 %; at 12 bits 91.4 % / 0.6 % (the rest are EOB/ZRL and
/// long magnitudes, which resolve in one load but extract their bits
/// separately). The fused share saturates at 11, the first width that holds
/// the standard luma ZRL code; entropy time was indistinguishable between
/// 10, 11 and 12 bits on the development host. A table is 4 · 2^bits bytes
/// and an image uses four, so 11 bits (32 KiB, mostly cold) still sits in a
/// 48 KiB L1D beside the MCU-row working set, and 12 would not.
pub(crate) const LUT_BITS: u32 = 11;

/// Which symbols a table carries, which decides how an entry fuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableClass {
    /// Symbols are magnitude categories `SSSS` (0..=11).
    Dc,
    /// Symbols are `RRRRSSSS` run/size pairs.
    Ac,
}

/// One-load decode table over the next [`LUT_BITS`] stream bits.
///
/// An entry is one of:
///
/// * **fused** — the code *and* its magnitude bits fit the window:
///   bits 0..5 code length, bits 5..10 total length (code + magnitude, never
///   0), bits 10..14 zero run, bits 16..32 the sign-extended coefficient
///   (DC: the difference);
/// * **code only** — the code fits, the magnitude bits do not (or the symbol
///   has none: EOB, ZRL, DC category 0, or a DC category above 11 the caller
///   must reject): bits 0..5 code length, bits 5..10 zero, bits 16..24 the
///   symbol;
/// * **miss** (`0`) — the code is longer than the window; fall back to
///   [`HuffTable::resolve_long`].
#[derive(Debug, Clone)]
pub(crate) struct FusedLut {
    entries: Box<[u32; 1 << LUT_BITS]>,
}

impl FusedLut {
    /// An all-miss table (every lookup falls back to the canonical walk).
    pub(crate) fn empty() -> Self {
        Self {
            entries: Box::new([0; 1 << LUT_BITS]),
        }
    }

    /// Refills the table in place from `table`.
    pub(crate) fn rebuild(&mut self, table: &HuffTable, class: TableClass) {
        let w = LUT_BITS as usize;
        self.entries.fill(0);
        let mut k = 0usize;
        let mut code: usize = 0;
        for len in 1..=w {
            for _ in 0..table.counts[len - 1] {
                let sym = table.symbols[k];
                let (run, size) = match class {
                    TableClass::Dc => (0, sym as usize),
                    TableClass::Ac => ((sym >> 4) as u32, (sym & 0x0F) as usize),
                };
                let prefix = code << (w - len);
                let fusable =
                    size > 0 && len + size <= w && (class == TableClass::Ac || size <= 11);
                if fusable {
                    let total = len + size;
                    let fill = 1usize << (w - total);
                    for bits in 0..(1usize << size) {
                        let value = decode_magnitude(bits as u32, size as u32);
                        let entry = ((value as i16 as u16 as u32) << 16)
                            | (run << 10)
                            | ((total as u32) << 5)
                            | len as u32;
                        let at = prefix | (bits << (w - total));
                        self.entries[at..at + fill].fill(entry);
                    }
                } else {
                    let entry = ((sym as u32) << 16) | len as u32;
                    self.entries[prefix..prefix + (1usize << (w - len))].fill(entry);
                }
                code += 1;
                k += 1;
            }
            code <<= 1;
        }
    }

    /// The entry for the [`LUT_BITS`] bits at the top of `peeked`.
    #[inline(always)]
    pub(crate) fn lookup(&self, peeked: u64) -> u32 {
        self.entries[(peeked >> (64 - LUT_BITS)) as usize]
    }
}

/// Code length of a non-miss [`FusedLut`] entry.
#[inline(always)]
pub(crate) fn entry_code_len(entry: u32) -> u32 {
    entry & 0x1F
}

/// Code + magnitude length of a fused entry; 0 for code-only entries.
#[inline(always)]
pub(crate) fn entry_total_len(entry: u32) -> u32 {
    (entry >> 5) & 0x1F
}

/// Zero run of a fused AC entry.
#[inline(always)]
pub(crate) fn entry_run(entry: u32) -> usize {
    ((entry >> 10) & 0x0F) as usize
}

/// Sign-extended coefficient of a fused entry.
#[inline(always)]
pub(crate) fn entry_value(entry: u32) -> i32 {
    entry as i32 >> 16
}

/// Symbol of a code-only entry.
#[inline(always)]
pub(crate) fn entry_symbol(entry: u32) -> u8 {
    (entry >> 16) as u8
}

// ---------------------------------------------------------------------------
// Magnitude (SSSS) coding helpers — T.81 F.1.2.1
// ---------------------------------------------------------------------------

/// Number of magnitude bits needed for `value` (the JPEG SSSS category).
#[inline]
pub fn magnitude_category(value: i32) -> u32 {
    let v = value.unsigned_abs();
    32 - v.leading_zeros()
}

/// Encodes a signed value in the JPEG magnitude representation: negative
/// values are stored as `value - 1` truncated to `ssss` bits.
#[inline]
pub fn encode_magnitude(value: i32, ssss: u32) -> u32 {
    if value >= 0 {
        value as u32
    } else {
        (value - 1) as u32 & ((1u32 << ssss) - 1)
    }
}

/// Decodes a JPEG magnitude-coded value of category `ssss`.
#[inline]
pub fn decode_magnitude(bits: u32, ssss: u32) -> i32 {
    if ssss == 0 {
        return 0;
    }
    let half = 1u32 << (ssss - 1);
    if bits >= half {
        bits as i32
    } else {
        bits as i32 - (1i32 << ssss) + 1
    }
}

/// Branchless [`decode_magnitude`] for `ssss` in `1..=15`: the sign test
/// becomes an arithmetic-shift mask so the hot loop carries no
/// data-dependent branch per coefficient.
#[inline]
pub(crate) fn extend_magnitude(bits: u32, ssss: u32) -> i32 {
    debug_assert!((1..=15).contains(&ssss));
    let v = bits as i32;
    let half = 1i32 << (ssss - 1);
    // v < half  →  mask = -1  →  v - (1 << ssss) + 1; otherwise v unchanged.
    v + (((v - half) >> 31) & ((-1i32 << ssss) + 1))
}

// ---------------------------------------------------------------------------
// Standard Annex K.3 tables
// ---------------------------------------------------------------------------

/// Standard luminance DC table (K.3.3.1).
pub(crate) fn std_dc_luma() -> HuffTable {
    let counts = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0];
    let symbols = [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
    HuffTable::new(counts, &symbols).expect("standard table is valid")
}

/// Standard chrominance DC table (K.3.3.1).
pub(crate) fn std_dc_chroma() -> HuffTable {
    let counts = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0];
    let symbols = [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
    HuffTable::new(counts, &symbols).expect("standard table is valid")
}

/// Standard luminance AC table (K.3.3.2).
pub(crate) fn std_ac_luma() -> HuffTable {
    let counts = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D];
    let symbols: [u8; 162] = [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
        0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52,
        0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25,
        0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64,
        0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
        0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3,
        0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8,
        0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ];
    HuffTable::new(counts, &symbols).expect("standard table is valid")
}

/// Standard chrominance AC table (K.3.3.2).
pub(crate) fn std_ac_chroma() -> HuffTable {
    let counts = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77];
    let symbols: [u8; 162] = [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
        0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33,
        0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18,
        0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63,
        0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A,
        0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
        0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA,
        0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7,
        0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ];
    HuffTable::new(counts, &symbols).expect("standard table is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwriter_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1011_1111]);
    }

    #[test]
    fn bitwriter_stuffs_ff() {
        let mut w = BitWriter::new();
        w.put_bits(0xFF, 8);
        w.put_bits(0xAB, 8);
        assert_eq!(w.finish(), vec![0xFF, 0x00, 0xAB]);
    }

    #[test]
    fn bitreader_unstuffs_ff() {
        let data = [0xFFu8, 0x00, 0xAB];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn bitreader_stops_at_marker() {
        let data = [0b1010_0000u8, 0xFF, 0xD9];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(4).unwrap(), 0b1010);
        // peek beyond end fills with ones; no crash at the marker.
        let peeked = r.peek_bits(8).unwrap();
        assert_eq!(peeked & 0x0F, 0x0F);
    }

    #[test]
    fn bit_io_roundtrip_many_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u32, u32)> = (1..=16)
            .map(|len| ((0x5A5A_5A5A >> (32 - len)) & ((1 << len) - 1), len))
            .collect();
        for &(v, l) in &values {
            w.put_bits(v, l);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, l) in &values {
            assert_eq!(r.get_bits(l).unwrap(), v, "width {l}");
        }
    }

    #[test]
    fn std_tables_build() {
        for t in [
            std_dc_luma(),
            std_dc_chroma(),
            std_ac_luma(),
            std_ac_chroma(),
        ] {
            let total: usize = t.counts().iter().map(|&c| c as usize).sum();
            assert_eq!(total, t.symbols().len());
        }
        assert_eq!(std_ac_luma().symbols().len(), 162);
        assert_eq!(std_ac_chroma().symbols().len(), 162);
    }

    #[test]
    fn encode_decode_all_symbols() {
        for table in [std_dc_luma(), std_ac_luma(), std_ac_chroma()] {
            let mut w = BitWriter::new();
            for &s in table.symbols() {
                table.encode(&mut w, s).unwrap();
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in table.symbols() {
                assert_eq!(table.decode(&mut r).unwrap(), s);
            }
        }
    }

    #[test]
    fn decode_rejects_absent_code() {
        // DC luma has 12 symbols; an all-ones 16-bit pattern is not a code.
        let table = std_dc_luma();
        let data = [0xFFu8, 0x00, 0xFF, 0x00];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(0).unwrap(), 0);
        assert!(matches!(
            table.decode(&mut r),
            Err(CodecError::InvalidHuffmanCode)
        ));
    }

    #[test]
    fn encode_rejects_absent_symbol() {
        let table = std_dc_luma();
        let mut w = BitWriter::new();
        assert!(table.encode(&mut w, 200).is_err());
    }

    #[test]
    fn table_validation() {
        // Count/symbol mismatch.
        let counts = [0u8; 16];
        assert!(HuffTable::new(counts, &[1, 2]).is_err());
        // Empty.
        assert!(HuffTable::new(counts, &[]).is_err());
        // Duplicate symbol.
        let mut c = [0u8; 16];
        c[1] = 2;
        assert!(HuffTable::new(c, &[7, 7]).is_err());
        // Overfull level: 3 codes of length 1 cannot exist.
        let mut c = [0u8; 16];
        c[0] = 3;
        assert!(HuffTable::new(c, &[1, 2, 3]).is_err());
    }

    #[test]
    fn magnitude_category_values() {
        assert_eq!(magnitude_category(0), 0);
        assert_eq!(magnitude_category(1), 1);
        assert_eq!(magnitude_category(-1), 1);
        assert_eq!(magnitude_category(2), 2);
        assert_eq!(magnitude_category(-3), 2);
        assert_eq!(magnitude_category(255), 8);
        assert_eq!(magnitude_category(-1024), 11);
    }

    #[test]
    fn magnitude_roundtrip() {
        for v in -2047i32..=2047 {
            let ssss = magnitude_category(v);
            let bits = encode_magnitude(v, ssss);
            assert_eq!(decode_magnitude(bits, ssss), v, "value {v}");
        }
    }

    #[test]
    fn code_len_reports_presence() {
        let t = std_dc_luma();
        assert!(t.code_len(0).is_some());
        assert!(t.code_len(11).is_some());
        assert_eq!(t.code_len(200), None);
    }

    #[test]
    fn extend_matches_decode_magnitude() {
        for ssss in 1u32..=15 {
            for bits in 0..(1u32 << ssss) {
                assert_eq!(
                    extend_magnitude(bits, ssss),
                    decode_magnitude(bits, ssss),
                    "bits {bits:#b} ssss {ssss}"
                );
            }
        }
    }

    /// Resolves the symbol at the top of `peeked` the way the block decoder
    /// does: fused entry, code-only entry, or canonical walk.
    fn resolve(table: &HuffTable, lut: &FusedLut, class: TableClass, peeked: u64) -> (u8, u32) {
        let e = lut.lookup(peeked);
        if e == 0 {
            return table.resolve_long(peeked).unwrap();
        }
        if entry_total_len(e) == 0 {
            return (entry_symbol(e), entry_code_len(e));
        }
        // Fused: reconstruct the symbol from run and magnitude length.
        let size = entry_total_len(e) - entry_code_len(e);
        let sym = match class {
            TableClass::Dc => size as u8,
            TableClass::Ac => ((entry_run(e) as u8) << 4) | size as u8,
        };
        (sym, entry_code_len(e))
    }

    #[test]
    fn fused_lut_matches_decode_for_all_symbols_and_magnitudes() {
        for (table, class) in [
            (std_dc_luma(), TableClass::Dc),
            (std_dc_chroma(), TableClass::Dc),
            (std_ac_luma(), TableClass::Ac),
            (std_ac_chroma(), TableClass::Ac),
        ] {
            let mut lut = FusedLut::empty();
            lut.rebuild(&table, class);
            for &s in table.symbols() {
                let size = match class {
                    TableClass::Dc => s as u32,
                    TableClass::Ac => (s & 0x0F) as u32,
                };
                // Every magnitude pattern of a short category, the extremes
                // of a long one.
                let patterns: Vec<u32> = if size <= 6 {
                    (0..1u32 << size).collect()
                } else {
                    vec![
                        0,
                        1,
                        (1 << (size - 1)) - 1,
                        1 << (size - 1),
                        (1 << size) - 1,
                    ]
                };
                for bits in patterns {
                    let mut w = BitWriter::new();
                    table.encode(&mut w, s).unwrap();
                    w.put_bits(bits, size);
                    let bytes = w.finish();
                    let mut r = BitReservoir::new(&bytes);
                    r.refill();
                    let (sym, len) = resolve(&table, &lut, class, r.peek());
                    assert_eq!(sym, s);
                    assert_eq!(len, table.code_len(s).unwrap());
                    let e = lut.lookup(r.peek());
                    if e != 0 && entry_total_len(e) != 0 {
                        assert_eq!(entry_total_len(e), len + size);
                        assert_eq!(entry_value(e), decode_magnitude(bits, size), "sym {s:#x}");
                    } else {
                        assert!(
                            size == 0 || len + size > LUT_BITS,
                            "sym {s:#x} len {len} should have fused"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_long_rejects_absent_code() {
        let table = std_dc_luma();
        let mut lut = FusedLut::empty();
        lut.rebuild(&table, TableClass::Dc);
        assert_eq!(lut.lookup(u64::MAX), 0);
        assert!(matches!(
            table.resolve_long(u64::MAX),
            Err(CodecError::InvalidHuffmanCode)
        ));
    }

    #[test]
    fn reservoir_matches_reader_bit_for_bit() {
        // A stream with stuffed 0xFF bytes, clean runs, and a trailing marker.
        let mut w = BitWriter::new();
        for i in 0..200u32 {
            w.put_bits(i.wrapping_mul(2654435761) & 0x7FF, 11);
            if i % 7 == 0 {
                w.put_bits(0xFF, 8); // force stuffing
            }
        }
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0xFF, 0xD9]); // terminating marker
        let mut r = BitReader::new(&bytes);
        let mut c = BitReservoir::new(&bytes);
        let mut drained = 0u32;
        loop {
            c.refill();
            let want = r.peek_bits(16).unwrap();
            let got = (c.peek() >> 48) as u32;
            assert_eq!(got, want, "peek mismatch after {drained} bits");
            let step = 1 + (drained % 31);
            let mut left = step;
            let mut reader_ok = true;
            while left > 0 && reader_ok {
                let n = left.min(16);
                reader_ok = r.get_bits(n).is_ok();
                left -= n;
            }
            if !reader_ok {
                assert!(c.bits_left() < step);
                break;
            }
            assert!(c.bits_left() >= step, "after {drained} bits");
            c.consume(step);
            drained += step;
        }
    }

    #[test]
    fn reservoir_bulk_refill_loads_whole_bytes() {
        let data = [
            0x12u8, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
            0x77, 0x88,
        ];
        let mut c = BitReservoir::new(&data);
        c.refill();
        // Seven whole bytes are accounted; the eighth is look-ahead.
        assert_eq!(c.bits_left(), 56);
        assert_eq!(c.peek(), 0x1234_5678_9ABC_DEF0);
        assert_eq!(c.byte_pos(), 0);
        c.consume(28);
        c.refill();
        // Four more bytes fit; the look-ahead nibble is the stream's next.
        assert_eq!(c.bits_left(), 28 + 32);
        assert_eq!(c.peek(), 0x89AB_CDEF_0112_2334);
        assert_eq!(c.byte_pos(), 3);
    }

    #[test]
    fn reservoir_byte_path_undoes_stuffing() {
        // 0xFF 0x00 pairs must decode as single 0xFF bytes.
        let data = [0x12u8, 0x34, 0x56, 0x78, 0xFF, 0x00, 0x9A, 0xBC, 0xDE];
        let mut c = BitReservoir::new(&data);
        c.refill();
        assert_eq!(c.bits_left(), 64);
        assert_eq!(c.peek(), 0x1234_5678_FF9A_BCDE);
    }

    #[test]
    fn reservoir_stops_at_marker_and_one_fills() {
        let data = [0xA5u8, 0xFF, 0xD0];
        let mut c = BitReservoir::new(&data);
        c.refill();
        assert_eq!(c.bits_left(), 8);
        assert_eq!(c.peek(), 0xA5FF_FFFF_FFFF_FFFF);
        c.consume(8);
        c.refill();
        assert_eq!(c.bits_left(), 0);
        assert_eq!(c.peek(), u64::MAX);
    }

    #[test]
    fn long_codes_take_slow_path() {
        // AC luma has many 16-bit codes; encode one and decode it.
        let t = std_ac_luma();
        // Find a symbol with a 16-bit code.
        let sym = *t
            .symbols()
            .iter()
            .find(|&&s| t.code_len(s) == Some(16))
            .expect("AC luma has 16-bit codes");
        let mut w = BitWriter::new();
        t.encode(&mut w, sym).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(t.decode(&mut r).unwrap(), sym);
    }
}
