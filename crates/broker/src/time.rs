//! Simulated wall-clock time.
//!
//! All components timestamp broker writes with [`SimTime`], a monotonic
//! count of simulated seconds. The discrete-event simulator advances it;
//! unit tests construct it directly.

/// A point in simulated time, in whole seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole minutes.
    pub fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes * 60)
    }

    /// Builds a time from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3600)
    }

    /// Builds a time from whole days.
    pub fn from_days(days: u64) -> Self {
        SimTime(days * 86_400)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Whole hours since the epoch (truncating).
    pub fn as_hours(self) -> u64 {
        self.0 / 3600
    }

    /// This time advanced by `secs` seconds.
    pub fn plus_secs(self, secs: u64) -> Self {
        SimTime(self.0 + secs)
    }

    /// This time advanced by `minutes` minutes.
    pub fn plus_minutes(self, minutes: u64) -> Self {
        SimTime(self.0 + minutes * 60)
    }

    /// This time advanced by `hours` hours.
    pub fn plus_hours(self, hours: u64) -> Self {
        SimTime(self.0 + hours * 3600)
    }

    /// Duration in seconds from `earlier` to `self` (0 if negative).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Hour-of-day in [0, 24), for diurnal workload models.
    pub fn hour_of_day(self) -> u64 {
        (self.0 / 3600) % 24
    }

    /// Day-of-week in [0, 7) with day 0 a Monday, for weekly patterns.
    pub fn day_of_week(self) -> u64 {
        (self.0 / 86_400) % 7
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.0 / 86_400;
        let h = (self.0 % 86_400) / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors_agree() {
        assert_eq!(SimTime::from_hours(2).as_secs(), 7200);
        assert_eq!(SimTime::from_days(1).as_hours(), 24);
        assert_eq!(SimTime::from_minutes(90).as_hours(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_hours(1).plus_minutes(30).plus_secs(15);
        assert_eq!(t.as_secs(), 5415);
        assert_eq!(t.since(SimTime::from_hours(1)), 1815);
        assert_eq!(SimTime::ZERO.since(t), 0);
    }

    #[test]
    fn calendar_helpers() {
        assert_eq!(SimTime::from_hours(25).hour_of_day(), 1);
        assert_eq!(SimTime::from_days(8).day_of_week(), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            SimTime::from_hours(26).plus_secs(61).to_string(),
            "d1+02:01:01"
        );
    }
}
