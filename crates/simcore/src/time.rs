//! Simulated time.
//!
//! Time is kept as integer nanoseconds (`u64`), which gives ~584 years of
//! range — far beyond any experiment in this workspace — while keeping
//! comparisons exact and the event calendar fully deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulated clock.
///
/// `SimTime::ZERO` is the start of the simulation. Instants are totally
/// ordered and support arithmetic with [`SimDuration`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time (always non-negative).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Build an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Build an instant from (possibly fractional) seconds since the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative, non-finite or past the clock; see
    /// [`SimTime::try_from_secs_f64`] for input from outside the program.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        match Self::try_from_secs_f64(secs) {
            Some(t) => t,
            None => invalid_seconds(secs),
        }
    }

    /// Build an instant from (possibly fractional) seconds since the
    /// epoch, rounded to the nanosecond: `None` if `secs` is negative or
    /// NaN, or if the instant lies past the clock's last nanosecond
    /// (about 1.8e10 s; infinity included).
    #[inline]
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        // 2^64 ns: the first instant `u64` nanoseconds cannot hold. The
        // cast below is exact short of it, where `as` would saturate.
        const END_NS: f64 = 18_446_744_073_709_551_616.0;
        let ns = (secs * NANOS_PER_SEC as f64).round();
        (secs >= 0.0 && ns < END_NS).then_some(SimTime(ns as u64))
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (lossy above 2^53 ns).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier:?} is after {self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Checked addition of a duration: `None` past the clock's range.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

/// [`SimTime::from_secs_f64`]'s panic, kept out of line so the accepted
/// path, which the schedulers take once per event, stays two compares
/// and a cast wherever it is inlined.
#[cold]
#[inline(never)]
fn invalid_seconds(secs: f64) -> ! {
    panic!("SimTime::from_secs_f64: invalid seconds {secs}")
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Build a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Build a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Build a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Build a duration from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: invalid seconds {secs}"
        );
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Scale by a non-negative factor (rounds to nearest nanosecond).
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64: invalid factor {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: instant + duration exceeds u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("SimTime underflow: duration larger than instant"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(other.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_nanos() {
        let t = SimTime::from_nanos(123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
    }

    #[test]
    fn time_from_secs_rounds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn try_from_secs_rejects_what_the_clock_cannot_hold() {
        // The first seconds value whose nanoseconds round to 2^64, and
        // the largest one below it.
        let first_rejected = 18_446_744_073.709_553_f64;
        let last_accepted = f64::from_bits(first_rejected.to_bits() - 1);
        assert_eq!((first_rejected * 1e9).round(), 2f64.powi(64));
        assert_eq!(
            SimTime::try_from_secs_f64(last_accepted).map(SimTime::as_nanos),
            Some((last_accepted * 1e9).round() as u64)
        );
        assert!(SimTime::try_from_secs_f64(last_accepted).unwrap() < SimTime::MAX);
        assert_eq!(SimTime::try_from_secs_f64(first_rejected), None);
        for bad in [
            -1e-12,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ] {
            assert_eq!(SimTime::try_from_secs_f64(bad), None, "{bad}");
        }
        assert_eq!(SimTime::try_from_secs_f64(0.0), Some(SimTime::ZERO));
        assert_eq!(
            SimTime::try_from_secs_f64(1.5),
            Some(SimTime::from_nanos(1_500_000_000))
        );
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_panics_past_the_clock() {
        let _ = SimTime::from_secs_f64(1e300);
    }

    #[test]
    fn time_add_duration() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 1_250_000_000);
    }

    #[test]
    fn duration_since_ordering() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!(b.duration_since(a).as_nanos(), 200);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        let _ = a.duration_since(b);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(2) - SimDuration::from_millis(500);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        let e = d + SimDuration::from_micros(1);
        assert_eq!(e.as_nanos(), 1_500_001_000);
    }

    #[test]
    fn duration_mul_f64() {
        let d = SimDuration::from_secs(1).mul_f64(0.25);
        assert_eq!(d.as_nanos(), 250_000_000);
    }

    #[test]
    fn duration_checked_sub() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(7);
        assert_eq!(b.checked_sub(a), Some(SimDuration::from_nanos(2)));
        assert_eq!(a.checked_sub(b), None);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_nanos(2),
                SimTime::from_nanos(5)
            ]
        );
    }

    #[test]
    fn saturating_add_does_not_overflow() {
        let t = SimTime::MAX.saturating_add(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(0.5)), "0.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(20)), "0.020000s");
    }
}
