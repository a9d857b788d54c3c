//! The output digest: 64-bit FNV-1a over the `Debug` text of every result.
//!
//! `Debug` text is the one rendering every field of an
//! `AnalyzedExperiment` takes part in, so a change to any time bound,
//! verdict or event shows. It is also why digests are compared between
//! runs of one commit and never pinned as constants: a later soundness fix
//! may change them legitimately.

use std::fmt::{self, Debug, Write};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash; formatting into it hashes without allocating.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes `value`'s `Debug` text followed by a separator, so that
    /// `["ab", "c"]` and `["a", "bc"]` differ.
    pub fn debug(&mut self, value: &impl Debug) {
        write!(self, "{value:?}").expect("hashing cannot fail");
        self.bytes(&[0xff]);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        let mut d = Digest::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.hex(), "85944171f73967e8");
    }

    #[test]
    fn stable_and_boundary_sensitive() {
        let of = |items: &[&str]| {
            let mut d = Digest::default();
            for item in items {
                d.debug(item);
            }
            d
        };
        assert_eq!(of(&["ab", "c"]), of(&["ab", "c"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["ab"]), of(&["ab", ""]));
    }
}
