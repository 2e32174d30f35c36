//! Minimal big-endian byte-buffer helpers for the UDP framing.
//!
//! These two extension traits provide the `bytes` crate's
//! `put_*`/`get_*` vocabulary over plain `Vec<u8>`/`&[u8]` for the widths
//! the frame header uses, keeping the workspace free of external
//! dependencies. All integers are big-endian. (`watchmen-core`'s message
//! codec writes its layouts through its own `Wire` trait, whose decoders
//! report truncation instead of panicking.)

/// Big-endian write helpers for `Vec<u8>`.
///
/// # Examples
///
/// ```
/// use watchmen_net::wire::PutBytes;
///
/// let mut b = Vec::new();
/// b.put_u16(0x574d);
/// b.put_u32(7);
/// assert_eq!(b, [0x57, 0x4d, 0, 0, 0, 7]);
/// ```
pub trait PutBytes {
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends raw bytes.
    fn put_slice(&mut self, v: &[u8]);
}

impl PutBytes for Vec<u8> {
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Big-endian read helpers for `&[u8]`, advancing the slice in place.
///
/// # Panics
///
/// Each getter panics if the slice is too short — callers bound-check
/// with `len()` first, exactly as with `bytes::Buf`.
///
/// # Examples
///
/// ```
/// use watchmen_net::wire::GetBytes;
///
/// let data = [0u8, 0, 0, 9, 0, 42];
/// let mut buf: &[u8] = &data;
/// assert_eq!(buf.get_u32(), 9);
/// assert_eq!(buf.get_u16(), 42);
/// assert!(buf.is_empty());
/// ```
pub trait GetBytes {
    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16;
    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
}

/// Splits off the first `N` bytes as an array, advancing the slice.
fn take_array<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("split_at guarantees length")
}

impl GetBytes for &[u8] {
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(take_array(self))
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(take_array(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = Vec::new();
        b.put_u16(0x1234);
        b.put_u32(0xdead_beef);
        b.put_slice(b"xy");
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xdead_beef);
        assert_eq!(r, b"xy");
    }

    #[test]
    fn encoding_is_big_endian() {
        let mut b = Vec::new();
        b.put_u32(1);
        assert_eq!(b, [0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "mid > len")]
    fn short_read_panics() {
        let mut r: &[u8] = &[1, 2];
        let _ = r.get_u32();
    }
}
