//! The Barton BT96040 chip-on-glass display.
//!
//! The prototype carries *two* of these 96×40 monochrome panels on the
//! I2C bus: the upper one shows the menu, the lower one shows "additional
//! state information" / debug output (paper, Sections 4.4 and 6). In the
//! 6×8-cell text mode used by the firmware each panel holds 5 lines of 16
//! characters.
//!
//! The device speaks a tiny command protocol over I2C (modelled on real
//! COG controllers):
//!
//! | first byte | meaning |
//! |-----------|---------|
//! | `0x01` | clear screen, home cursor |
//! | `0x02 line col` | set text cursor |
//! | `0x03 text…` | write ASCII text at the cursor, clipping at line end |
//! | `0x04 level` | set contrast (0–63, from the potentiometer) |
//! | `0x05 on` | display on/off |
//!
//! The full pixel framebuffer is rendered from the text buffer with the
//! 5×7 font so tests and examples can assert on actual pixels or dump
//! ASCII art of what the user would see.

use crate::font;
use crate::i2c::I2cDevice;
use crate::HwError;

/// Panel width in pixels.
pub const WIDTH: usize = 96;
/// Panel height in pixels.
pub const HEIGHT: usize = 40;
/// Text columns in the 6×8 cell mode.
pub const TEXT_COLS: usize = WIDTH / font::CELL_WIDTH;
/// Text lines in the 6×8 cell mode.
pub const TEXT_LINES: usize = HEIGHT / font::CELL_HEIGHT;

/// Command opcodes of the display protocol.
pub mod cmd {
    /// Clear screen and home the cursor.
    pub const CLEAR: u8 = 0x01;
    /// Set the text cursor: `[SET_CURSOR, line, col]`.
    pub const SET_CURSOR: u8 = 0x02;
    /// Write ASCII text at the cursor: `[WRITE_TEXT, bytes…]`.
    pub const WRITE_TEXT: u8 = 0x03;
    /// Set contrast: `[SET_CONTRAST, level]`, level in `0..=63`.
    pub const SET_CONTRAST: u8 = 0x04;
    /// Display on/off: `[SET_POWER, 0|1]`.
    pub const SET_POWER: u8 = 0x05;
}

/// Which of the two panels a display instance is (for labelling only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisplayRole {
    /// Upper panel: menu / application data (paper §6).
    Upper,
    /// Lower panel: state information / debug output (paper §1, §6).
    Lower,
}

impl std::fmt::Display for DisplayRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DisplayRole::Upper => "upper",
            DisplayRole::Lower => "lower",
        })
    }
}

/// Model of one BT96040 panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bt96040 {
    address: u8,
    role: DisplayRole,
    text: [[u8; TEXT_COLS]; TEXT_LINES],
    cursor_line: usize,
    cursor_col: usize,
    contrast: u8,
    powered: bool,
    /// Count of full-screen clears (a cheap proxy for flicker in tests).
    clears: u64,
    writes: u64,
    /// Total font ink of the text buffer, maintained incrementally on
    /// every write so the per-tick power model reads it in O(1) instead
    /// of re-scanning all 80 cells. Invariant: always equals
    /// [`Bt96040::recount_lit_pixels`] of the current buffer.
    ink_total: u32,
}

impl Bt96040 {
    /// Creates a powered-on, cleared panel at the given I2C address.
    pub fn new(address: u8, role: DisplayRole) -> Self {
        Bt96040 {
            address,
            role,
            text: [[b' '; TEXT_COLS]; TEXT_LINES],
            cursor_line: 0,
            cursor_col: 0,
            contrast: 32,
            powered: true,
            clears: 0,
            writes: 0,
            ink_total: 0,
        }
    }

    /// The panel's role (upper or lower).
    pub fn role(&self) -> DisplayRole {
        self.role
    }

    /// Current contrast level, 0–63.
    pub fn contrast(&self) -> u8 {
        self.contrast
    }

    /// Whether the panel is switched on.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Number of clear commands processed since boot.
    pub fn clear_count(&self) -> u64 {
        self.clears
    }

    /// Number of text-write commands processed since boot.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// The text of one line, trailing spaces trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `line >= TEXT_LINES`.
    pub fn line(&self, line: usize) -> String {
        assert!(line < TEXT_LINES, "line {line} out of range");
        let s: String = self.text[line].iter().map(|&b| b as char).collect();
        s.trim_end().to_string()
    }

    /// All five lines, trailing spaces trimmed.
    pub fn lines(&self) -> Vec<String> {
        (0..TEXT_LINES).map(|l| self.line(l)).collect()
    }

    /// Whether a framebuffer pixel is lit. Origin is the top-left corner.
    pub fn pixel(&self, x: usize, y: usize) -> bool {
        if !self.powered || x >= WIDTH || y >= HEIGHT {
            return false;
        }
        let line = y / font::CELL_HEIGHT;
        let col = x / font::CELL_WIDTH;
        let gx = x % font::CELL_WIDTH;
        let gy = y % font::CELL_HEIGHT;
        if gx >= font::GLYPH_WIDTH || gy >= font::GLYPH_HEIGHT {
            return false;
        }
        font::pixel(self.text[line][col] as char, gx, gy)
    }

    /// Count of lit pixels (drives the power model; also a handy test
    /// probe). O(1): reads the incrementally-maintained ink total rather
    /// than scanning the text buffer — the board's power step calls this
    /// every simulated tick.
    pub fn lit_pixels(&self) -> u32 {
        if !self.powered {
            return 0;
        }
        self.ink_total
    }

    /// Recounts lit pixels by scanning the whole text buffer — the
    /// reference implementation the O(1) [`Bt96040::lit_pixels`] cache is
    /// checked against.
    pub fn recount_lit_pixels(&self) -> u32 {
        if !self.powered {
            return 0;
        }
        self.text
            .iter()
            .flat_map(|line| line.iter())
            .map(|&b| font::ink(b as char))
            .sum()
    }

    /// ASCII-art dump of the text buffer, one bordered block — what a user
    /// holding the device would read.
    pub fn as_ascii_art(&self) -> String {
        let mut out = String::new();
        out.push('+');
        out.push_str(&"-".repeat(TEXT_COLS));
        out.push_str("+\n");
        for l in 0..TEXT_LINES {
            out.push('|');
            for c in 0..TEXT_COLS {
                out.push(if self.powered {
                    self.text[l][c] as char
                } else {
                    ' '
                });
            }
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(TEXT_COLS));
        out.push('+');
        out
    }

    fn protocol_err(&self, reason: &'static str) -> HwError {
        HwError::I2cProtocol {
            address: self.address,
            reason,
        }
    }
}

impl I2cDevice for Bt96040 {
    fn address(&self) -> u8 {
        self.address
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), HwError> {
        let (&op, rest) = bytes
            .split_first()
            .ok_or_else(|| self.protocol_err("empty command"))?;
        match op {
            cmd::CLEAR => {
                if !rest.is_empty() {
                    return Err(self.protocol_err("clear takes no operands"));
                }
                self.text = [[b' '; TEXT_COLS]; TEXT_LINES];
                self.ink_total = 0; // the space glyph has no ink
                self.cursor_line = 0;
                self.cursor_col = 0;
                self.clears += 1;
                Ok(())
            }
            cmd::SET_CURSOR => {
                let [line, col] = rest else {
                    return Err(self.protocol_err("set-cursor takes line and column"));
                };
                if usize::from(*line) >= TEXT_LINES || usize::from(*col) >= TEXT_COLS {
                    return Err(self.protocol_err("cursor out of range"));
                }
                self.cursor_line = usize::from(*line);
                self.cursor_col = usize::from(*col);
                Ok(())
            }
            cmd::WRITE_TEXT => {
                for &b in rest {
                    if self.cursor_col >= TEXT_COLS {
                        break; // clip at line end, like the real controller
                    }
                    let stored = if (0x20..=0x7e).contains(&b) { b } else { b'?' };
                    let cell = &mut self.text[self.cursor_line][self.cursor_col];
                    self.ink_total += font::ink(stored as char);
                    self.ink_total -= font::ink(*cell as char);
                    *cell = stored;
                    self.cursor_col += 1;
                }
                self.writes += 1;
                Ok(())
            }
            cmd::SET_CONTRAST => {
                let [level] = rest else {
                    return Err(self.protocol_err("set-contrast takes one level byte"));
                };
                if *level > 63 {
                    return Err(self.protocol_err("contrast level above 63"));
                }
                self.contrast = *level;
                Ok(())
            }
            cmd::SET_POWER => {
                let [on] = rest else {
                    return Err(self.protocol_err("set-power takes one flag byte"));
                };
                self.powered = *on != 0;
                Ok(())
            }
            _ => Err(self.protocol_err("unknown command")),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<(), HwError> {
        // Status read: [busy=0, contrast, powered].
        let status = [0u8, self.contrast, u8::from(self.powered)];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = status.get(i).copied().unwrap_or(0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Bt96040 {
        Bt96040::new(0x3c, DisplayRole::Upper)
    }

    fn write_at(d: &mut Bt96040, line: u8, col: u8, text: &str) {
        d.write(&[cmd::SET_CURSOR, line, col]).unwrap();
        let mut payload = vec![cmd::WRITE_TEXT];
        payload.extend_from_slice(text.as_bytes());
        d.write(&payload).unwrap();
    }

    #[test]
    fn writes_land_at_cursor() {
        let mut d = fresh();
        write_at(&mut d, 2, 3, "Menu");
        assert_eq!(d.line(2), "   Menu");
        assert_eq!(d.line(0), "");
    }

    #[test]
    fn text_clips_at_line_end() {
        let mut d = fresh();
        write_at(&mut d, 0, 10, "ABCDEFGHIJ");
        assert_eq!(d.line(0), "          ABCDEF");
        assert_eq!(d.line(1), "", "no wrap to next line");
    }

    #[test]
    fn clear_erases_and_homes() {
        let mut d = fresh();
        write_at(&mut d, 4, 0, "xxxx");
        d.write(&[cmd::CLEAR]).unwrap();
        assert!(d.lines().iter().all(String::is_empty));
        assert_eq!(d.clear_count(), 1);
        // Cursor is home: a bare write lands at 0,0.
        d.write(&[cmd::WRITE_TEXT, b'A']).unwrap();
        assert_eq!(d.line(0), "A");
    }

    #[test]
    fn cursor_out_of_range_is_rejected() {
        let mut d = fresh();
        assert!(d.write(&[cmd::SET_CURSOR, 5, 0]).is_err());
        assert!(d.write(&[cmd::SET_CURSOR, 0, 16]).is_err());
        assert!(d.write(&[cmd::SET_CURSOR, 4, 15]).is_ok());
    }

    #[test]
    fn contrast_levels_validate() {
        let mut d = fresh();
        d.write(&[cmd::SET_CONTRAST, 63]).unwrap();
        assert_eq!(d.contrast(), 63);
        assert!(d.write(&[cmd::SET_CONTRAST, 64]).is_err());
    }

    #[test]
    fn power_off_blanks_pixels_but_keeps_text() {
        let mut d = fresh();
        write_at(&mut d, 0, 0, "Hi");
        assert!(d.lit_pixels() > 0);
        d.write(&[cmd::SET_POWER, 0]).unwrap();
        assert_eq!(d.lit_pixels(), 0);
        assert!(!d.pixel(0, 0));
        d.write(&[cmd::SET_POWER, 1]).unwrap();
        assert!(d.lit_pixels() > 0, "text survives a power cycle");
    }

    #[test]
    fn pixels_match_font() {
        let mut d = fresh();
        write_at(&mut d, 0, 0, "|");
        // '|' glyph: full-height column at glyph x=2.
        for row in 0..font::GLYPH_HEIGHT {
            assert!(d.pixel(2, row));
        }
        assert!(!d.pixel(0, 0));
        // Out-of-bounds is unlit, not a panic.
        assert!(!d.pixel(1000, 1000));
    }

    #[test]
    fn non_ascii_bytes_render_as_question_mark() {
        let mut d = fresh();
        d.write(&[cmd::WRITE_TEXT, 0xff, 0x07]).unwrap();
        assert_eq!(d.line(0), "??");
    }

    #[test]
    fn unknown_commands_are_protocol_errors() {
        let mut d = fresh();
        let err = d.write(&[0x7f]).unwrap_err();
        assert!(matches!(err, HwError::I2cProtocol { .. }));
        assert!(d.write(&[]).is_err());
    }

    #[test]
    fn status_read_reports_contrast_and_power() {
        let mut d = fresh();
        d.write(&[cmd::SET_CONTRAST, 11]).unwrap();
        let mut buf = [0u8; 3];
        d.read(&mut buf).unwrap();
        assert_eq!(buf, [0, 11, 1]);
    }

    #[test]
    fn ascii_art_has_border_and_five_lines() {
        let mut d = fresh();
        write_at(&mut d, 0, 0, "Ring tones");
        let art = d.as_ascii_art();
        let rows: Vec<&str> = art.lines().collect();
        assert_eq!(rows.len(), TEXT_LINES + 2);
        assert!(rows[1].contains("Ring tones"));
        assert!(rows[0].starts_with('+'));
    }

    #[test]
    fn cached_lit_pixels_always_matches_a_full_recount() {
        let mut d = fresh();
        // A deterministic pseudo-random command mix: overwrites, clears,
        // clipped writes, power cycles, non-ASCII substitution.
        let mut state = 0x9e37_79b9_u32;
        let mut step = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state >> 16
        };
        for i in 0..500 {
            match step() % 10 {
                0 => drop(d.write(&[cmd::CLEAR])),
                1 => drop(d.write(&[cmd::SET_POWER, (step() % 2) as u8])),
                2 => drop(d.write(&[cmd::SET_CURSOR, (step() % 5) as u8, (step() % 16) as u8])),
                _ => {
                    let mut payload = vec![cmd::WRITE_TEXT];
                    for _ in 0..(step() % 20) {
                        payload.push((step() % 256) as u8);
                    }
                    drop(d.write(&payload));
                }
            }
            assert_eq!(
                d.lit_pixels(),
                d.recount_lit_pixels(),
                "ink cache diverged from the text buffer at step {i}"
            );
        }
    }

    #[test]
    fn geometry_is_sixteen_by_five() {
        assert_eq!(TEXT_COLS, 16);
        assert_eq!(TEXT_LINES, 5);
    }
}
