//! Wire framing for inference requests.
//!
//! A minimal length-prefixed format: fixed header + JPEG payload. Both the
//! client generators and the NIC RX path really encode/parse these bytes.

/// Frame header length in bytes.
pub(crate) const FRAME_HEADER_LEN: usize = 28;

const MAGIC: u32 = 0xD1B0_057E;

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than a header.
    Truncated,
    /// Magic mismatch (not one of our frames).
    BadMagic {
        /// What was found.
        got: u32,
    },
    /// Declared payload length disagrees with the buffer.
    LengthMismatch {
        /// Declared payload bytes.
        declared: u32,
        /// Bytes actually present.
        present: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:#x}"),
            FrameError::LengthMismatch { declared, present } => {
                write!(f, "payload length {declared} declared, {present} present")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Globally unique request id.
    pub request_id: u64,
    /// Which client sent it.
    pub client_id: u32,
    /// Client-side send timestamp (nanoseconds; opaque to the server, echoed
    /// in responses).
    pub send_ts_nanos: u64,
    /// JPEG payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialises header + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&self.send_ts_nanos.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a complete frame from `bytes` into an owned frame (the
    /// payload copied out of the wire bytes). The RX path parses in place
    /// with `FrameView::parse` instead.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        FrameView::parse(bytes).map(|view| Frame {
            request_id: view.request_id,
            client_id: view.client_id,
            send_ts_nanos: view.send_ts_nanos,
            payload: view.payload.to_vec(),
        })
    }

    /// Total wire bytes of this frame.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }
}

/// One request frame parsed in place: the header fields, and the payload
/// as a view of the wire bytes — nothing copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameView<'a> {
    /// Globally unique request id.
    pub request_id: u64,
    /// Which client sent it.
    pub client_id: u32,
    /// Client-side send timestamp (nanoseconds).
    pub send_ts_nanos: u64,
    /// JPEG payload, borrowed from the wire bytes.
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses a complete frame from `bytes`, borrowing its payload.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, FrameError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let request_id = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let client_id = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let send_ts_nanos = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let declared = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        let present = bytes.len() - FRAME_HEADER_LEN;
        if declared as usize != present {
            return Err(FrameError::LengthMismatch { declared, present });
        }
        Ok(FrameView {
            request_id,
            client_id,
            send_ts_nanos,
            payload: &bytes[FRAME_HEADER_LEN..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Frame {
            request_id: 42,
            client_id: 3,
            send_ts_nanos: 123_456_789,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Frame::decode(&[1, 2, 3]), Err(FrameError::Truncated));
        let mut bytes = Frame {
            request_id: 1,
            client_id: 1,
            send_ts_nanos: 0,
            payload: vec![7; 10],
        }
        .encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut bytes = Frame {
            request_id: 1,
            client_id: 1,
            send_ts_nanos: 0,
            payload: vec![7; 10],
        }
        .encode();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn view_borrows_the_payload_in_place() {
        let f = Frame {
            request_id: 9,
            client_id: 2,
            send_ts_nanos: 77,
            payload: vec![3; 12],
        };
        let bytes = f.encode();
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.payload.as_ptr(), bytes[FRAME_HEADER_LEN..].as_ptr());
        assert_eq!(
            (view.request_id, view.client_id, view.send_ts_nanos),
            (9, 2, 77)
        );
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_is_legal() {
        let f = Frame {
            request_id: 0,
            client_id: 0,
            send_ts_nanos: 0,
            payload: vec![],
        };
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }
}
