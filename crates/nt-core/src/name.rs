//! Counted UTF-16 names and the Win32 legality rules.

use std::fmt::{self, Write};

/// Reserved DOS device names that the Win32 layer refuses to address as
/// ordinary files, regardless of extension (`CON.txt` is still `CON`).
pub(crate) const RESERVED_DEVICE_NAMES: &[&str] = &[
    "CON", "PRN", "AUX", "NUL", "COM1", "COM2", "COM3", "COM4", "COM5", "COM6", "COM7", "COM8",
    "COM9", "LPT1", "LPT2", "LPT3", "LPT4", "LPT5", "LPT6", "LPT7", "LPT8", "LPT9",
];

/// Characters the Win32 layer rejects in file names (the native layer does not).
pub(crate) const WIN32_ILLEGAL_CHARS: &[char] = &['<', '>', ':', '"', '/', '|', '?', '*'];

/// A counted UTF-16 string — the native NT name representation.
///
/// NT stores names as `UNICODE_STRING`s: a length plus a buffer, with no
/// terminator. Consequently an `NtString` may contain embedded `NUL` code
/// units. The Win32 API layer, which marshals names through NUL-terminated
/// C strings, silently truncates at the first `NUL` — the discrepancy that
/// ghostware exploits to create Registry entries invisible to RegEdit
/// (paper, Section 3).
///
/// Comparison of two `NtString`s via [`NtString::eq_ignore_case`] follows the
/// NT object-namespace convention of case-insensitivity; `PartialEq`/`Hash`
/// remain case-*sensitive* and exact so that the type behaves like a plain
/// value in collections. Use [`NtString::fold_key`] as a case-insensitive map
/// key.
///
/// # Examples
///
/// ```
/// use strider_nt_core::NtString;
///
/// let visible = NtString::from("Run");
/// let sneaky = NtString::from_units(&[b'R' as u16, 0, b'x' as u16]);
/// assert!(sneaky.contains_nul());
/// // The Win32 view truncates at the NUL:
/// assert_eq!(sneaky.to_win32_lossy(), "R");
/// assert_eq!(visible.to_win32_lossy(), "Run");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtString {
    units: Vec<u16>,
}

impl NtString {
    /// Creates an empty name.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a name from raw UTF-16 code units, which may include `NUL`s.
    pub fn from_units(units: &[u16]) -> Self {
        Self {
            units: units.to_vec(),
        }
    }

    /// The raw UTF-16 code units.
    pub fn units(&self) -> &[u16] {
        &self.units
    }

    /// Number of UTF-16 code units (the `Length/2` of a `UNICODE_STRING`).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the name is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Whether the counted string contains an embedded `NUL` code unit.
    pub fn contains_nul(&self) -> bool {
        self.units.contains(&0)
    }

    /// The name as the Win32 layer sees it: truncated at the first `NUL`,
    /// lossily decoded.
    pub fn to_win32_lossy(&self) -> String {
        let end = self
            .units
            .iter()
            .position(|&u| u == 0)
            .unwrap_or(self.units.len());
        String::from_utf16_lossy(&self.units[..end])
    }

    /// The full counted name, lossily decoded, with embedded `NUL`s rendered
    /// as `\0` escapes so the representation is never misleadingly truncated.
    /// The same text as `Display`, in a `String` of exactly its length.
    pub fn to_display_string(&self) -> String {
        let mut out = String::with_capacity(self.display_len());
        self.write_display(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the display rendering: the one renderer behind `Display`,
    /// [`NtString::to_display_string`] and the path renderings.
    pub(crate) fn write_display<W: Write>(&self, out: &mut W) -> fmt::Result {
        for c in self.display_chars() {
            match c {
                Some(c) => out.write_char(c)?,
                None => out.write_str("\\0")?,
            }
        }
        Ok(())
    }

    /// Byte length of [`NtString::to_display_string`].
    pub(crate) fn display_len(&self) -> usize {
        self.display_chars()
            .map(|c| c.map_or(2, char::len_utf8))
            .sum()
    }

    /// The decoded display characters; `None` stands for an embedded `NUL`.
    /// Valid surrogate pairs decode to one character and unpaired
    /// surrogates to U+FFFD, exactly as `String::from_utf16_lossy` does.
    fn display_chars(&self) -> impl Iterator<Item = Option<char>> + '_ {
        char::decode_utf16(self.units.iter().copied()).map(|c| match c {
            Ok('\0') => None,
            Ok(c) => Some(c),
            Err(_) => Some(char::REPLACEMENT_CHARACTER),
        })
    }

    /// A case-folded exact key for case-insensitive maps, preserving embedded
    /// `NUL`s (NT name comparison is case-insensitive but NUL-significant).
    pub fn fold_key(&self) -> Vec<u16> {
        self.units.iter().map(|&u| fold_unit(u)).collect()
    }

    /// Case-insensitive equality per NT name-comparison rules.
    pub fn eq_ignore_case(&self, other: &NtString) -> bool {
        self.len() == other.len()
            && self
                .units
                .iter()
                .zip(&other.units)
                .all(|(&a, &b)| fold_unit(a) == fold_unit(b))
    }

    /// Validates the name against the Win32 layer's file-naming rules.
    ///
    /// NTFS itself (through the native API) accepts all of these names; only
    /// the Win32 API refuses to create or address them, which is why files
    /// with such names are invisible to `dir`-style high-level scans
    /// (paper, Section 2).
    ///
    /// # Errors
    ///
    /// Returns the first rule the name violates.
    pub fn validate_win32(&self) -> Result<(), Win32NameError> {
        self.validate_win32_chars()?;
        match self.reserved_stem() {
            Some(stem) => Err(Win32NameError::ReservedDeviceName(stem.to_string())),
            None => Ok(()),
        }
    }

    /// Whether the name passes every Win32 file-naming rule.
    pub fn is_win32_legal(&self) -> bool {
        self.validate_win32_chars().is_ok() && self.reserved_stem().is_none()
    }

    /// Every Win32 rule but the reserved stem, in `validate_win32`'s order.
    /// Each of these rules names an ASCII character, and a unit below
    /// `0x80` always decodes to itself, so the units are read in place.
    fn validate_win32_chars(&self) -> Result<(), Win32NameError> {
        let Some(&last) = self.units.last() else {
            return Err(Win32NameError::Empty);
        };
        if self.contains_nul() {
            return Err(Win32NameError::EmbeddedNul);
        }
        if let Some(c) = self
            .units
            .iter()
            .filter_map(|&u| char::from_u32(u32::from(u)))
            .find(|c| WIN32_ILLEGAL_CHARS.contains(c))
        {
            return Err(Win32NameError::IllegalCharacter(c));
        }
        if let Some(&u) = self.units.iter().find(|&&u| u < 0x20) {
            return Err(Win32NameError::ControlCharacter(u32::from(u)));
        }
        if last == u16::from(b'.') || last == u16::from(b' ') {
            return Err(Win32NameError::TrailingDotOrSpace);
        }
        Ok(())
    }

    /// The reserved device name the stem (the text before the first `.`)
    /// spells, ignoring ASCII case.
    fn reserved_stem(&self) -> Option<&'static str> {
        let stem = self.units.split(|&u| u == u16::from(b'.')).next()?;
        RESERVED_DEVICE_NAMES.iter().copied().find(|reserved| {
            reserved.len() == stem.len()
                && reserved
                    .bytes()
                    .zip(stem)
                    .all(|(r, &u)| u8::try_from(u).is_ok_and(|b| b.to_ascii_uppercase() == r))
        })
    }
}

/// Simple case folding of one unit. The NT upcase table folds the whole
/// BMP; ASCII folding covers the simulation's namespace.
pub(crate) fn fold_unit(u: u16) -> u16 {
    if (u16::from(b'A')..=u16::from(b'Z')).contains(&u) {
        u + 0x20
    } else {
        u
    }
}

impl From<&str> for NtString {
    fn from(s: &str) -> Self {
        Self {
            units: s.encode_utf16().collect(),
        }
    }
}

impl From<Vec<u16>> for NtString {
    /// Takes ownership of raw code units, which may include `NUL`s.
    fn from(units: Vec<u16>) -> Self {
        Self { units }
    }
}

impl From<String> for NtString {
    fn from(s: String) -> Self {
        NtString::from(s.as_str())
    }
}

impl fmt::Display for NtString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_display(f)
    }
}

/// A violation of the Win32 file-naming rules.
///
/// Names that violate these rules are fully addressable through the native
/// API and NTFS, producing the "hidden by naming" class of ghostware files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Win32NameError {
    /// The name is empty.
    Empty,
    /// The counted string embeds a `NUL` code unit.
    EmbeddedNul,
    /// The name contains a character Win32 forbids (`<>:"/|?*`).
    IllegalCharacter(char),
    /// The name contains a control character below `0x20`.
    ControlCharacter(u32),
    /// The name ends with a dot or a space.
    TrailingDotOrSpace,
    /// The stem is a reserved DOS device name such as `CON` or `LPT1`.
    ReservedDeviceName(String),
}

impl fmt::Display for Win32NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Win32NameError::Empty => write!(f, "name is empty"),
            Win32NameError::EmbeddedNul => write!(f, "name contains an embedded NUL"),
            Win32NameError::IllegalCharacter(c) => {
                write!(f, "name contains illegal character {c:?}")
            }
            Win32NameError::ControlCharacter(c) => {
                write!(f, "name contains control character U+{c:04X}")
            }
            Win32NameError::TrailingDotOrSpace => write!(f, "name ends with a dot or space"),
            Win32NameError::ReservedDeviceName(n) => {
                write!(f, "name stem is reserved device name {n}")
            }
        }
    }
}

impl std::error::Error for Win32NameError {}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct NtString { units });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let n = NtString::from("Notepad.exe");
        assert_eq!(n.to_win32_lossy(), "Notepad.exe");
        assert_eq!(n.len(), 11);
        assert!(n.is_win32_legal());
    }

    #[test]
    fn embedded_nul_truncates_win32_view_but_not_display() {
        let n = NtString::from_units(&[104, 0, 105]); // "h\0i"
        assert!(n.contains_nul());
        assert_eq!(n.to_win32_lossy(), "h");
        assert_eq!(n.to_display_string(), "h\\0i");
        assert_eq!(n.validate_win32(), Err(Win32NameError::EmbeddedNul));
    }

    #[test]
    fn trailing_nul_is_escaped_in_display() {
        let n = NtString::from_units(&[104, 0]);
        assert_eq!(n.to_display_string(), "h\\0");
    }

    #[test]
    fn case_insensitive_comparison() {
        let a = NtString::from("HxDef100.EXE");
        let b = NtString::from("hxdef100.exe");
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b); // exact equality stays case-sensitive
        assert_eq!(a.fold_key(), b.fold_key());
    }

    #[test]
    fn trailing_dot_and_space_are_win32_illegal() {
        assert_eq!(
            NtString::from("update.").validate_win32(),
            Err(Win32NameError::TrailingDotOrSpace)
        );
        assert_eq!(
            NtString::from("driver ").validate_win32(),
            Err(Win32NameError::TrailingDotOrSpace)
        );
    }

    #[test]
    fn reserved_device_names_with_and_without_extension() {
        assert!(matches!(
            NtString::from("CON").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        assert!(matches!(
            NtString::from("nul.txt").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        assert!(matches!(
            NtString::from("lpt1.log").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        // CONSOLE is not reserved, only the exact stem.
        assert!(NtString::from("console.txt").is_win32_legal());
    }

    #[test]
    fn illegal_and_control_characters() {
        assert!(matches!(
            NtString::from("a<b").validate_win32(),
            Err(Win32NameError::IllegalCharacter('<'))
        ));
        assert!(matches!(
            NtString::from("a\u{1}b").validate_win32(),
            Err(Win32NameError::ControlCharacter(1))
        ));
    }

    #[test]
    fn empty_name_is_illegal() {
        assert_eq!(NtString::new().validate_win32(), Err(Win32NameError::Empty));
    }

    #[test]
    fn error_display_is_nonempty_lowercase() {
        for e in [
            Win32NameError::Empty,
            Win32NameError::EmbeddedNul,
            Win32NameError::IllegalCharacter('?'),
            Win32NameError::ControlCharacter(2),
            Win32NameError::TrailingDotOrSpace,
            Win32NameError::ReservedDeviceName("CON".into()),
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
