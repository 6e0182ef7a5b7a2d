//! # dlb-codec
//!
//! From-scratch implementation of the image-preprocessing primitives that the
//! DLBooster paper (ICPP 2019) offloads to its FPGA decoder: baseline JPEG
//! entropy decoding (Huffman), inverse DCT, YCbCr→RGB conversion and resizing
//! — plus the matching encoder used to build synthetic datasets, and the
//! GPU-side augmentation ops that DLBooster deliberately does *not* offload.
//!
//! The codec implements a self-contained subset of ITU-T T.81 baseline
//! sequential JPEG (JFIF container, 8-bit samples, Huffman entropy coding,
//! 4:4:4 / 4:2:0 chroma subsampling, grayscale). It is bit-exact with itself
//! (encode→decode roundtrips are tested against PSNR bounds) and is the
//! *functional* workload executed by both the CPU baseline backend and the
//! simulated FPGA decoder lanes.
//!
//! Layout:
//! * [`pixel`] — image containers and color conversion.
//! * [`dct`] — 8×8 forward/inverse DCT (AAN-style scaled floats).
//! * [`quant`] — quantization tables and quality scaling.
//! * [`huffman`] — bit I/O and canonical JPEG Huffman coding.
//! * [`jpeg`] — baseline encoder/decoder over JFIF markers.
//! * [`resize`] — nearest / bilinear / area resampling.
//! * [`simd`] — runtime-dispatched AVX2 kernels with scalar fallback.
//! * [`augment`] — crop / flip / normalize (the GPU-side stage).
//! * [`synth`] — deterministic synthetic image generation.
//! * [`bmp`] — minimal BMP export for examples.
//! * [`audio`] — DCT-II spectrogram extraction (the `AudioSpectrogram`
//!   mirror kernel; paper §2.1 speech workflows).
//! * [`text`] — hash-vocabulary quantisation (the `TextQuantize` mirror
//!   kernel; paper §2.1 language workflows).

pub mod audio;
pub mod augment;
pub mod bmp;
pub mod dct;
pub mod error;
pub mod huffman;
pub mod jpeg;
pub mod pixel;
pub mod quant;
pub mod resize;
pub mod simd;
pub mod synth;
pub mod text;

pub use error::CodecError;
pub use jpeg::{decoder::JpegDecoder, encoder::JpegEncoder, ChromaMode, DecodeScratch};
pub use pixel::{ColorSpace, Image};
pub use resize::ResizeFilter;
