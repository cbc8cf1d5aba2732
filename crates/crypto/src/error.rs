//! Error type for the cryptographic substrate.

use std::fmt;

/// Errors produced by cryptographic operations.
///
/// Every variant carries enough context to diagnose the failure without
/// leaking secret material (private keys and nonces never appear in error
/// messages).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A hex string could not be decoded (odd length or non-hex byte).
    InvalidHex {
        /// Byte offset of the first offending character, if known.
        position: Option<usize>,
    },
    /// An encoded value had the wrong length.
    InvalidLength {
        /// Expected length in bytes.
        expected: usize,
        /// Actual length in bytes.
        actual: usize,
    },
    /// A scalar was zero or not less than the group order `n`.
    ScalarOutOfRange,
    /// A field element was not less than the field prime `p`.
    FieldOutOfRange,
    /// A point was not on the secp256k1 curve.
    PointNotOnCurve,
    /// A public key encoding was malformed.
    InvalidPublicKey,
    /// A signature was structurally invalid (zero `r` or `s`, or `s` not
    /// in the low half when low-s normalization is required).
    InvalidSignature,
    /// Signature verification failed: the signature does not match the
    /// message digest under the given public key.
    VerificationFailed,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidHex { position: Some(p) } => {
                write!(f, "invalid hex encoding at byte {p}")
            }
            CryptoError::InvalidHex { position: None } => {
                write!(f, "invalid hex encoding (odd length)")
            }
            CryptoError::InvalidLength { expected, actual } => {
                write!(f, "invalid length: expected {expected} bytes, got {actual}")
            }
            CryptoError::ScalarOutOfRange => {
                write!(
                    f,
                    "scalar is zero or not less than the secp256k1 group order"
                )
            }
            CryptoError::FieldOutOfRange => {
                write!(
                    f,
                    "field element is not less than the secp256k1 field prime"
                )
            }
            CryptoError::PointNotOnCurve => write!(f, "point is not on the secp256k1 curve"),
            CryptoError::InvalidPublicKey => write!(f, "malformed public key encoding"),
            CryptoError::InvalidSignature => write!(f, "structurally invalid ECDSA signature"),
            CryptoError::VerificationFailed => write!(f, "ECDSA signature verification failed"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<CryptoError> = vec![
            CryptoError::InvalidHex { position: Some(3) },
            CryptoError::InvalidHex { position: None },
            CryptoError::InvalidLength {
                expected: 32,
                actual: 31,
            },
            CryptoError::ScalarOutOfRange,
            CryptoError::FieldOutOfRange,
            CryptoError::PointNotOnCurve,
            CryptoError::InvalidPublicKey,
            CryptoError::InvalidSignature,
            CryptoError::VerificationFailed,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&CryptoError::ScalarOutOfRange);
    }

    #[test]
    fn invalid_length_reports_both_sizes() {
        let e = CryptoError::InvalidLength {
            expected: 64,
            actual: 65,
        };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("65"));
    }
}
