//! 20-byte account addresses.
//!
//! Addresses identify every stakeholder on the SmartCrowd chain: the
//! provider identifier `P_i`, the detector identifier `D_i`, and the payee
//! wallet `W_{D_i}` of Eq. 3 are all addresses. Derivation follows Ethereum
//! (low 20 bytes of the Keccak-256 of the public key), matching the
//! prototype's geth substrate and the paper's note that blockchain addresses
//! are hash-derived for privacy (§II).

use crate::error::CryptoError;
use crate::hex;
use std::fmt;
use std::str::FromStr;

/// A 20-byte account address.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::Address;
///
/// let a: Address = "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf".parse().unwrap();
/// assert_eq!(a.as_bytes().len(), 20);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address([u8; 20]);

impl Address {
    /// The all-zero address, used as the "system" account (block rewards
    /// originate from it).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Wraps raw bytes as an address.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Deterministically derives a labelled address for tests/simulations
    /// (keccak of the label, truncated). Not related to any key pair.
    pub fn from_label(label: &str) -> Self {
        let digest = crate::keccak::keccak256(label.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest[12..]);
        Address(out)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({self})")
    }
}

impl FromStr for Address {
    type Err = CryptoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Address(hex::decode_array::<20>(s)?))
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 20]> for Address {
    fn from(b: [u8; 20]) -> Self {
        Address(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let a = Address::from_label("provider-1");
        let s = a.to_string();
        assert!(s.starts_with("0x"));
        assert_eq!(s.len(), 42);
        assert_eq!(s.parse::<Address>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_wrong_length() {
        assert!("0xabcd".parse::<Address>().is_err());
        assert!("".parse::<Address>().is_err());
    }

    #[test]
    fn zero_address() {
        assert_eq!(Address::ZERO.0, [0u8; 20]);
        assert_ne!(Address::from_label("x"), Address::ZERO);
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        assert_eq!(Address::from_label("a"), Address::from_label("a"));
        assert_ne!(Address::from_label("a"), Address::from_label("b"));
    }

    #[test]
    fn ordering_is_bytewise() {
        let lo = Address::from_bytes([0u8; 20]);
        let hi = Address::from_bytes([255u8; 20]);
        assert!(lo < hi);
    }
}
