//! ASN.1 time values (`UTCTime` / `GeneralizedTime`) and the civil-calendar
//! arithmetic they need.
//!
//! X.509 `Validity` uses UTCTime for years 1950–2049 and GeneralizedTime
//! otherwise (RFC 5280 §4.1.2.5). The paper's dataset contains certificates
//! with `notAfter` values in 1757 and `notBefore` values in 2157, so the full
//! proleptic-Gregorian range must round-trip. All values are UTC ("Z").

use crate::{Error, Result};

/// Seconds in a day.
const DAY: i64 = 86_400;

/// A UTC timestamp with second precision, stored as seconds since the Unix
/// epoch (may be negative: the paper observes certificates dated 1757).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn1Time {
    unix: i64,
}

impl Asn1Time {
    /// From raw Unix seconds.
    pub fn from_unix(unix: i64) -> Asn1Time {
        Asn1Time { unix }
    }

    /// From a civil date/time (UTC). Panics on out-of-range month/day/time
    /// components; callers construct these from validated parses or literals.
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        min: u32,
        sec: u32,
    ) -> Asn1Time {
        assert!((1..=12).contains(&month), "month out of range");
        assert!((1..=31).contains(&day), "day out of range");
        assert!(hour < 24 && min < 60 && sec < 60, "time out of range");
        let days = days_from_civil(year, month, day);
        Asn1Time {
            unix: days * DAY + i64::from(hour) * 3600 + i64::from(min) * 60 + i64::from(sec),
        }
    }

    /// Midnight UTC on the given civil date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Asn1Time {
        Asn1Time::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Seconds since the Unix epoch.
    pub fn unix(self) -> i64 {
        self.unix
    }

    /// The civil (year, month, day, hour, minute, second) in UTC.
    pub fn to_civil(self) -> (i32, u32, u32, u32, u32, u32) {
        let days = self.unix.div_euclid(DAY);
        let secs = self.unix.rem_euclid(DAY);
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (secs / 3600) as u32,
            ((secs % 3600) / 60) as u32,
            (secs % 60) as u32,
        )
    }

    /// The civil year.
    pub fn year(self) -> i32 {
        self.to_civil().0
    }

    /// Add a whole number of days (may be negative).
    pub fn add_days(self, days: i64) -> Asn1Time {
        Asn1Time {
            unix: self.unix + days * DAY,
        }
    }

    /// Add seconds (may be negative).
    pub fn add_secs(self, secs: i64) -> Asn1Time {
        Asn1Time {
            unix: self.unix + secs,
        }
    }

    /// Whole days from `self` to `other`, floored. `div_euclid` rather
    /// than `/`: truncation toward zero would make a negative
    /// partial-day span (the direction the expired/validity analyses
    /// traverse) one day too small in magnitude — `-36` hours must count
    /// as `-2` elapsed days, not `-1`.
    pub fn days_until(self, other: Asn1Time) -> i64 {
        (other.unix - self.unix).div_euclid(DAY)
    }

    /// Whether RFC 5280 requires UTCTime (1950–2049) for this value.
    pub fn fits_utc_time(self) -> bool {
        let y = self.year();
        (1950..=2049).contains(&y)
    }

    /// Render as DER content bytes: `YYMMDDHHMMSSZ` for UTCTime range,
    /// otherwise `YYYYMMDDHHMMSSZ` (GeneralizedTime). Returns the string and
    /// whether it is a UTCTime.
    pub fn to_der_string(self) -> (String, bool) {
        let (y, mo, d, h, mi, s) = self.to_civil();
        if self.fits_utc_time() {
            let yy = y % 100;
            (format!("{yy:02}{mo:02}{d:02}{h:02}{mi:02}{s:02}Z"), true)
        } else {
            (format!("{y:04}{mo:02}{d:02}{h:02}{mi:02}{s:02}Z"), false)
        }
    }

    /// Parse UTCTime content bytes (`YYMMDDHHMMSSZ`).
    pub fn parse_utc_time(content: &[u8]) -> Result<Asn1Time> {
        let s = std::str::from_utf8(content).map_err(|_| Error::BadTime)?;
        if s.len() != 13 || !s.ends_with('Z') {
            return Err(Error::BadTime);
        }
        let yy = digits(s, 0..2)? as i32;
        // RFC 5280: two-digit years 00–49 are 2000s, 50–99 are 1900s.
        let year = if yy < 50 { 2000 + yy } else { 1900 + yy };
        parse_tail(year, &s[2..12])
    }

    /// Parse GeneralizedTime content bytes (`YYYYMMDDHHMMSSZ`).
    pub fn parse_generalized_time(content: &[u8]) -> Result<Asn1Time> {
        let s = std::str::from_utf8(content).map_err(|_| Error::BadTime)?;
        if s.len() != 15 || !s.ends_with('Z') {
            return Err(Error::BadTime);
        }
        let year = digits(s, 0..4)? as i32;
        parse_tail(year, &s[4..14])
    }

    /// Date-only text (`YYYY-MM-DD`), for reports.
    pub fn to_date_string(self) -> String {
        let (y, mo, d, ..) = self.to_civil();
        format!("{y:04}-{mo:02}-{d:02}")
    }
}

/// Parse a fixed-width decimal field, accepting ASCII digits only.
/// `str::parse` alone would also take a leading `+`/`-` sign (so `"+5"`
/// would parse as month 5), which DER time strings forbid.
fn digits(s: &str, range: std::ops::Range<usize>) -> Result<u32> {
    let field = s.get(range).ok_or(Error::BadTime)?;
    if field.is_empty() || !field.bytes().all(|b| b.is_ascii_digit()) {
        return Err(Error::BadTime);
    }
    field.parse().map_err(|_| Error::BadTime)
}

fn parse_tail(year: i32, rest: &str) -> Result<Asn1Time> {
    let month = digits(rest, 0..2)?;
    let day = digits(rest, 2..4)?;
    let hour = digits(rest, 4..6)?;
    let min = digits(rest, 6..8)?;
    let sec = digits(rest, 8..10)?;
    if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
        return Err(Error::BadTime);
    }
    if hour >= 24 || min >= 60 || sec >= 60 {
        return Err(Error::BadTime);
    }
    Ok(Asn1Time::from_ymd_hms(year, month, day, hour, min, sec))
}

/// Days in a month of the proleptic Gregorian calendar.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Proleptic Gregorian leap-year rule.
pub fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of `days_from_civil`).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Asn1Time::from_ymd(1970, 1, 1).unix(), 0);
        assert_eq!(Asn1Time::from_unix(0).to_civil(), (1970, 1, 1, 0, 0, 0));
    }

    #[test]
    fn known_timestamp() {
        // 2022-05-01T00:00:00Z == 1651363200
        assert_eq!(Asn1Time::from_ymd(2022, 5, 1).unix(), 1_651_363_200);
    }

    #[test]
    fn civil_round_trip_across_centuries() {
        for &(y, m, d) in &[
            (1757, 6, 15),
            (1849, 10, 24),
            (1970, 1, 1),
            (2000, 2, 29),
            (2022, 5, 1),
            (2049, 12, 31),
            (2050, 1, 1),
            (2157, 3, 9),
            (2250, 7, 4),
        ] {
            let t = Asn1Time::from_ymd(y, m, d);
            let (yy, mm, dd, ..) = t.to_civil();
            assert_eq!((yy, mm, dd), (y, m, d));
        }
    }

    #[test]
    fn utc_time_round_trip() {
        let t = Asn1Time::from_ymd_hms(2023, 8, 9, 12, 34, 56);
        let (s, is_utc) = t.to_der_string();
        assert!(is_utc);
        assert_eq!(s, "230809123456Z");
        assert_eq!(Asn1Time::parse_utc_time(s.as_bytes()).unwrap(), t);
    }

    #[test]
    fn utc_time_pivot() {
        // 99 => 1999, 49 => 2049, 50 => 1950
        assert_eq!(
            Asn1Time::parse_utc_time(b"991231235959Z").unwrap().year(),
            1999
        );
        assert_eq!(
            Asn1Time::parse_utc_time(b"490101000000Z").unwrap().year(),
            2049
        );
        assert_eq!(
            Asn1Time::parse_utc_time(b"500101000000Z").unwrap().year(),
            1950
        );
    }

    #[test]
    fn generalized_time_round_trip_pre_1950() {
        let t = Asn1Time::from_ymd_hms(1849, 10, 24, 0, 0, 0);
        let (s, is_utc) = t.to_der_string();
        assert!(!is_utc);
        assert_eq!(s, "18491024000000Z");
        assert_eq!(Asn1Time::parse_generalized_time(s.as_bytes()).unwrap(), t);
    }

    #[test]
    fn generalized_time_round_trip_post_2049() {
        let t = Asn1Time::from_ymd_hms(2157, 3, 9, 1, 2, 3);
        let (s, is_utc) = t.to_der_string();
        assert!(!is_utc);
        assert_eq!(Asn1Time::parse_generalized_time(s.as_bytes()).unwrap(), t);
    }

    #[test]
    fn rejects_bad_times() {
        assert!(Asn1Time::parse_utc_time(b"230230000000Z").is_err()); // Feb 30
        assert!(Asn1Time::parse_utc_time(b"231301000000Z").is_err()); // month 13
        assert!(Asn1Time::parse_utc_time(b"2308091234Z").is_err()); // too short
        assert!(Asn1Time::parse_utc_time(b"230809123456+").is_err()); // no Z
        assert!(Asn1Time::parse_generalized_time(b"20230809123456").is_err());
        assert!(Asn1Time::parse_utc_time(b"230809250000Z").is_err()); // hour 25
    }

    #[test]
    fn rejects_sign_characters_in_numeric_fields() {
        // `str::parse` accepts "+5" as 5; every field must be digits-only.
        assert!(Asn1Time::parse_utc_time(b"+30809123456Z").is_err()); // year "+3"
        assert!(Asn1Time::parse_utc_time(b"-30809123456Z").is_err());
        assert!(Asn1Time::parse_utc_time(b"23+809123456Z").is_err()); // month "+8"
        assert!(Asn1Time::parse_utc_time(b"2308+9123456Z").is_err()); // day "+9"
        assert!(Asn1Time::parse_utc_time(b"230809+23456Z").is_err()); // hour "+2"
        assert!(Asn1Time::parse_utc_time(b"23080912+456Z").is_err()); // min "+4"
        assert!(Asn1Time::parse_utc_time(b"2308091234+6Z").is_err()); // sec "+6"
        assert!(Asn1Time::parse_utc_time(b"23 809123456Z").is_err()); // space pad
        assert!(Asn1Time::parse_generalized_time(b"+0230809123456Z").is_err());
        assert!(Asn1Time::parse_generalized_time(b"2023+809123456Z").is_err());
        assert!(Asn1Time::parse_generalized_time(b"20230809+23456Z").is_err());
        // Unicode digits that `char::is_numeric` would bless are not ASCII.
        assert!(Asn1Time::parse_utc_time("２30809123456Z".as_bytes()).is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2024));
        assert!(!is_leap(2023));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2023, 2), 28);
    }

    #[test]
    fn day_arithmetic() {
        let a = Asn1Time::from_ymd(2022, 5, 1);
        let b = a.add_days(700);
        assert_eq!(a.days_until(b), 700);
        assert_eq!(b.days_until(a), -700);
    }

    #[test]
    fn days_until_floors_partial_days() {
        let a = Asn1Time::from_ymd(2022, 5, 1);
        // Exact-day boundaries are unchanged in both directions.
        assert_eq!(a.days_until(a), 0);
        assert_eq!(a.days_until(a.add_days(1)), 1);
        assert_eq!(a.days_until(a.add_days(-1)), -1);
        // A positive partial day floors down (one second short of a day).
        assert_eq!(a.days_until(a.add_secs(DAY - 1)), 0);
        assert_eq!(a.days_until(a.add_secs(DAY + 1)), 1);
        // A negative partial day floors *away* from zero: -1 second is
        // day -1, -36 hours is day -2 (truncation gave 0 and -1).
        assert_eq!(a.days_until(a.add_secs(-1)), -1);
        assert_eq!(a.days_until(a.add_secs(-DAY - DAY / 2)), -2);
        assert_eq!(a.days_until(a.add_secs(-DAY)), -1);
    }

    #[test]
    fn negative_unix_times() {
        let t = Asn1Time::from_ymd(1849, 10, 24);
        assert!(t.unix() < 0);
        let (y, m, d, ..) = t.to_civil();
        assert_eq!((y, m, d), (1849, 10, 24));
    }
}
