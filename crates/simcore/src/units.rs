//! Byte and bandwidth units.
//!
//! The whole workspace talks in **bytes** (`u64`) and **bytes per second**
//! (`f64`, wrapped in [`Bandwidth`]). Paper figures are in MiB/s, so the
//! conversion helpers here are used at every reporting boundary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte.
pub const TIB: u64 = 1024 * GIB;

/// Convert a byte count to MiB as `f64`.
pub fn bytes_to_mib(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

/// Convert a byte count to GiB as `f64`.
pub fn bytes_to_gib(bytes: u64) -> f64 {
    bytes as f64 / GIB as f64
}

/// A data rate in bytes per second.
///
/// Stored as `f64` because rates are the result of max–min divisions; all
/// comparisons in the simulator use explicit tolerances.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// The zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From raw bytes/second.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "Bandwidth must be finite and non-negative, got {bps}"
        );
        Bandwidth(bps)
    }

    /// From MiB/second (the paper's reporting unit).
    pub fn from_mib_per_sec(mibs: f64) -> Self {
        Self::from_bytes_per_sec(mibs * MIB as f64)
    }

    /// From Gbit/second (the unit network links are sold in).
    pub fn from_gbit_per_sec(gbits: f64) -> Self {
        Self::from_bytes_per_sec(gbits * 1e9 / 8.0)
    }

    /// Raw bytes/second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// MiB/second.
    pub fn mib_per_sec(self) -> f64 {
        self.0 / MIB as f64
    }

    /// Time to transfer `bytes` at this rate, in seconds.
    ///
    /// Returns `f64::INFINITY` for a zero rate.
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        if self.0 == 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / self.0
        }
    }

    /// The smaller of two rates.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two rates.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// True if the rate is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

// Deserialization applies `from_bytes_per_sec`'s check as a typed error,
// so a rate read from JSON is as valid as one built in code.
impl Deserialize for Bandwidth {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let bps = f64::from_value(v)?;
        if bps.is_finite() && bps >= 0.0 {
            Ok(Bandwidth(bps))
        } else {
            Err(serde::DeError::custom(format!(
                "Bandwidth must be finite and non-negative, got {bps}"
            )))
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + other.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, other: Bandwidth) {
        self.0 += other.0;
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 * factor)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, divisor: f64) -> Bandwidth {
        assert!(
            divisor > 0.0,
            "Bandwidth division by non-positive {divisor}"
        );
        Bandwidth(self.0 / divisor)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MiB/s", self.mib_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants() {
        assert_eq!(MIB, 1_048_576);
        assert_eq!(GIB, 1_073_741_824);
        assert_eq!(TIB / GIB, 1024);
    }

    #[test]
    fn mib_roundtrip() {
        let b = Bandwidth::from_mib_per_sec(1250.0);
        assert!((b.mib_per_sec() - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn gbit_conversion() {
        // 10 Gbit/s = 1.25e9 bytes/s ~= 1192.1 MiB/s
        let b = Bandwidth::from_gbit_per_sec(10.0);
        assert!((b.bytes_per_sec() - 1.25e9).abs() < 1.0);
        assert!((b.mib_per_sec() - 1192.09).abs() < 0.01);
    }

    #[test]
    fn transfer_time() {
        let b = Bandwidth::from_bytes_per_sec(100.0);
        assert!((b.transfer_secs(1000) - 10.0).abs() < 1e-12);
        assert!(Bandwidth::ZERO.transfer_secs(1).is_infinite());
    }

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_bytes_per_sec(100.0);
        let b = Bandwidth::from_bytes_per_sec(50.0);
        assert_eq!((a + b).bytes_per_sec(), 150.0);
        assert_eq!((a * 0.5).bytes_per_sec(), 50.0);
        assert_eq!((a / 4.0).bytes_per_sec(), 25.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Bandwidth = (1..=4)
            .map(|i| Bandwidth::from_bytes_per_sec(i as f64))
            .sum();
        assert_eq!(total.bytes_per_sec(), 10.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::from_bytes_per_sec(-1.0);
    }

    #[test]
    fn byte_helpers() {
        assert_eq!(bytes_to_mib(32 * GIB), 32.0 * 1024.0);
        assert_eq!(bytes_to_gib(32 * GIB), 32.0);
    }
}
