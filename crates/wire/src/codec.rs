//! Byte-level encoding primitives shared by every frame type.
//!
//! All integers are little-endian. Variable-length fields carry an
//! explicit count prefix and are bounds-checked against the remaining
//! payload *before* any allocation, so a hostile length prefix can never
//! reserve more memory than the bytes actually present on the wire.

use crate::WireError;
use qldpc_gf2::BitVec;

/// Hard cap on any single string field (code names, error details,
/// metrics pages), independent of the frame-payload cap.
pub const MAX_STRING_BYTES: u32 = 1 << 20;

/// Append-only encoder over a plain byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// `u32` byte count + UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds [`MAX_STRING_BYTES`] — an encoding-side
    /// contract violation, not a wire condition.
    pub fn string(&mut self, s: &str) {
        assert!(
            s.len() as u64 <= u64::from(MAX_STRING_BYTES),
            "string field exceeds the wire cap ({} > {MAX_STRING_BYTES} bytes)",
            s.len()
        );
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `u64` bit length + the packed `u64` words (exactly
    /// `ceil(len/64)`, final word's unused high bits zero — the same
    /// invariant [`BitVec`] maintains internally, so this is a straight
    /// word copy).
    pub fn bits(&mut self, v: &BitVec) {
        self.u64(v.len() as u64);
        for &w in v.as_words() {
            self.u64(w);
        }
    }
}

/// Bounds-checked cursor over one frame payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Strict boolean: only `0` and `1` are valid on the wire.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(WireError::BadBool { got }),
        }
    }

    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > MAX_STRING_BYTES {
            return Err(WireError::StringTooLong {
                len,
                max: MAX_STRING_BYTES,
            });
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Decodes a bit-packed vector and re-checks the `BitVec` word
    /// invariant: set bits beyond the declared length are rejected, not
    /// silently masked — they would make two encodings of the same
    /// vector wire-distinguishable.
    pub fn bits(&mut self) -> Result<BitVec, WireError> {
        let len = self.u64()?;
        // Bound via the bytes actually present: `take` fails before any
        // allocation can happen, so a huge length prefix costs nothing.
        let words = len.div_ceil(64);
        let bytes = words
            .checked_mul(8)
            .filter(|&b| b <= self.remaining() as u64)
            .ok_or(WireError::Truncated {
                need: words.saturating_mul(8) as usize,
                have: self.remaining(),
            })?;
        let raw = self.take(bytes as usize)?;
        let words: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let tail_bits = (len % 64) as u32;
        if tail_bits != 0 {
            let tail = *words.last().expect("tail word exists when len % 64 != 0");
            if tail >> tail_bits != 0 {
                return Err(WireError::TrailingBits);
            }
        }
        Ok(BitVec::from_words(len as usize, words))
    }

    /// Asserts the payload was consumed exactly; unconsumed bytes are a
    /// malformed frame, not an extension point.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingGarbage {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(0.125);
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), 0.125);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn bits_round_trip_all_lengths_near_word_boundary() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let v = BitVec::from_indices(len, &(0..len).step_by(3).collect::<Vec<_>>());
            let mut w = Writer::new();
            w.bits(&v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.bits().unwrap(), v, "len {len}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn bits_reject_set_padding() {
        let mut w = Writer::new();
        w.u64(10); // 10 bits, one word
        w.u64(1 << 10); // bit 10 is beyond the declared length
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).bits(), Err(WireError::TrailingBits));
    }

    #[test]
    fn hostile_length_prefixes_fail_before_allocating() {
        // A bits field claiming u64::MAX bits with no backing bytes.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).bits(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn strings_reject_bad_utf8_and_oversize() {
        let mut w = Writer::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Reader::new(&bytes).string(), Err(WireError::BadUtf8));

        let mut w = Writer::new();
        w.u32(MAX_STRING_BYTES + 1);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).string(),
            Err(WireError::StringTooLong { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut bytes = w.into_bytes();
        bytes.push(0xAA);
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingGarbage { extra: 1 }));
    }
}
