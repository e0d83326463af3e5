//! Simulated time, measured in CPU cycles of the paper's 200 MHz Pentium-Pro.
//!
//! All components of the simulation account time in cycles so that the
//! quantities the paper reports (e.g. "the buffer switch takes 17,000,000
//! cycles") are first-class values. Conversion helpers to wall-clock units
//! assume the paper's clock rate of [`CPU_HZ`].

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Clock rate of the simulated host CPU (200 MHz Pentium-Pro, paper §4.2).
pub const CPU_HZ: u64 = 200_000_000;

/// Cycles per microsecond at [`CPU_HZ`].
pub const CYCLES_PER_US: u64 = CPU_HZ / 1_000_000;

/// A duration, in simulated CPU cycles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero-length duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Duration of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Cycles {
        Cycles(us * CYCLES_PER_US)
    }

    /// Duration of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Cycles {
        Cycles(ms * 1_000 * CYCLES_PER_US)
    }

    /// Duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Cycles {
        Cycles(s * CPU_HZ)
    }

    /// This duration expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / CYCLES_PER_US as f64
    }

    /// This duration expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / (1_000 * CYCLES_PER_US) as f64
    }

    /// This duration expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / CPU_HZ as f64
    }

    /// Raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Cycles needed to move `bytes` at `bytes_per_sec`, rounded up.
    ///
    /// This is the conversion used throughout the memory and link cost
    /// models: `cycles = ceil(bytes * CPU_HZ / bandwidth)`. The product
    /// fits in a `u64` for any size below ~92 GB, so the 128-bit division
    /// only runs when it would overflow.
    #[inline]
    pub fn for_bytes_at(bytes: u64, bytes_per_sec: u64) -> Cycles {
        debug_assert!(bytes_per_sec > 0, "bandwidth must be positive");
        match bytes.checked_mul(CPU_HZ) {
            Some(num) => Cycles(num.div_ceil(bytes_per_sec)),
            None => Self::for_bytes_at_wide(bytes, bytes_per_sec),
        }
    }

    /// [`Cycles::for_bytes_at`] computed in 128 bits throughout.
    #[cold]
    fn for_bytes_at_wide(bytes: u64, bytes_per_sec: u64) -> Cycles {
        let num = bytes as u128 * CPU_HZ as u128;
        let den = bytes_per_sec as u128;
        Cycles(num.div_ceil(den) as u64)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= CPU_HZ / 10 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= CYCLES_PER_US * 1_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else {
            write!(f, "{:.3}us", self.as_us())
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

/// An absolute instant on the simulated clock, in cycles since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Raw cycle count since simulation start.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Cycles {
        debug_assert!(earlier <= self, "since() with a future instant");
        Cycles(self.0 - earlier.0)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        Cycles(self.0).as_secs()
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Cycles(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Cycles(self.0))
    }
}

impl Add<Cycles> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Cycles) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: SimTime) -> Cycles {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Cycles::from_us(1).raw(), 200);
        assert_eq!(Cycles::from_ms(1).raw(), 200_000);
        assert_eq!(Cycles::from_secs(1).raw(), CPU_HZ);
        assert!((Cycles::from_ms(12).as_ms() - 12.0).abs() < 1e-9);
        assert!((Cycles::from_secs(3).as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_at_bandwidth_matches_paper_calibration() {
        // 400 KB send queue read back over the write-combining window at
        // 14 MB/s should cost about 5.85 M cycles (paper §4.2).
        let c = Cycles::for_bytes_at(400 * 1024, 14_000_000);
        assert!((5_700_000..6_000_000).contains(&c.raw()), "{c:?}");
        // 1 MB at 45 MB/s ~ 4.66 M cycles.
        let c = Cycles::for_bytes_at(1 << 20, 45_000_000);
        assert!((4_600_000..4_700_000).contains(&c.raw()), "{c:?}");
    }

    #[test]
    fn bytes_at_bandwidth_rounds_up() {
        // 1 byte at full CPU_HZ bytes/sec is exactly one cycle.
        assert_eq!(Cycles::for_bytes_at(1, CPU_HZ).raw(), 1);
        // 1 byte at 2*CPU_HZ rounds up to one cycle, not zero.
        assert_eq!(Cycles::for_bytes_at(1, 2 * CPU_HZ).raw(), 1);
        assert_eq!(Cycles::for_bytes_at(0, 1).raw(), 0);
    }

    proptest::proptest! {
        /// The 64-bit fast path and the 128-bit path agree everywhere:
        /// `bytes` and `bytes_per_sec` are drawn at every magnitude up to
        /// `u64::MAX`, so both sides of the overflow edge are covered.
        #[test]
        fn bytes_at_fast_path_matches_wide(
            raw in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
            bw_raw in proptest::prelude::any::<u64>(),
            bw_shift in 0u32..64,
        ) {
            let bytes = raw >> shift;
            let bw = (bw_raw >> bw_shift).max(1);
            proptest::prop_assert_eq!(
                Cycles::for_bytes_at(bytes, bw),
                Cycles::for_bytes_at_wide(bytes, bw)
            );
        }
    }

    #[test]
    fn simtime_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Cycles::from_us(5);
        assert_eq!((t1 - t0).raw(), 1000);
        assert_eq!(t1.max(t0), t1);
        let mut t = t0;
        t += Cycles(7);
        assert_eq!(t.raw(), 7);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Cycles::from_us(3)), "3.000us");
        assert_eq!(format!("{}", Cycles::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", Cycles::from_secs(3)), "3.000s");
    }
}
