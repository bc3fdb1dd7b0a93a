//! word2vec text-format interchange.
//!
//! The paper's practicability pitch is that enriched sequences "may be fed
//! directly into any standard SGNS implementation, such as word2vec" — and
//! conversely, the vectors such a tool produces must be loadable back.
//! This module speaks the original `word2vec` text format:
//!
//! ```text
//! <vocab_size> <dim>
//! <token> <v1> <v2> … <vdim>
//! …
//! ```

use crate::matrix::Matrix;
use std::io::{self, BufRead, Write};

/// Writes rows of `matrix` in word2vec text format, naming row `i` with
/// `name(i)`.
pub fn write_text<W: Write>(
    matrix: &Matrix,
    mut name: impl FnMut(usize) -> String,
    out: &mut W,
) -> io::Result<()> {
    writeln!(out, "{} {}", matrix.rows(), matrix.dim())?;
    for i in 0..matrix.rows() {
        let token = name(i);
        debug_assert!(
            !token.contains(' ') && !token.contains('\n'),
            "token names must not contain separators"
        );
        write!(out, "{token}")?;
        for v in matrix.row(i) {
            write!(out, " {v}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Errors raised while parsing a word2vec text file.
#[derive(Debug, PartialEq, Eq)]
pub enum W2vParseError {
    /// Missing or malformed `<vocab_size> <dim>` header.
    BadHeader,
    /// A row had the wrong number of columns or a non-numeric value.
    BadRow {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// Fewer rows than the header declared.
    Truncated {
        /// Rows declared by the header.
        expected: usize,
        /// Rows actually parsed.
        actual: usize,
    },
}

impl std::fmt::Display for W2vParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            W2vParseError::BadHeader => write!(f, "malformed word2vec header"),
            W2vParseError::BadRow { line } => write!(f, "malformed row at line {line}"),
            W2vParseError::Truncated { expected, actual } => {
                write!(f, "expected {expected} rows, found {actual}")
            }
        }
    }
}

impl std::error::Error for W2vParseError {}

/// Reads a word2vec text file into `(names, matrix)`.
///
/// The header is untrusted: a `rows × dim` no buffer can hold is a
/// [`W2vParseError::BadHeader`], and no buffer is sized from it, so the
/// buffers grow only with the rows the input really holds. A header that
/// promises more rows than follow is [`W2vParseError::Truncated`]. Every
/// line must end with its newline, as word2vec writes them: a file cut
/// inside its last value would otherwise still parse, with that value
/// changed (a header without one is a [`W2vParseError::BadHeader`], a row
/// without one is not counted).
pub fn read_text<R: BufRead>(mut input: R) -> Result<(Vec<String>, Matrix), W2vParseError> {
    let mut line = String::new();
    if input.read_line(&mut line).is_err() || !line.ends_with('\n') {
        return Err(W2vParseError::BadHeader);
    }
    let mut parts = line.split_whitespace();
    let rows: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or(W2vParseError::BadHeader)?;
    let dim: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or(W2vParseError::BadHeader)?;
    // A shape no `f32` buffer can have (`rows × dim` overflows, or its
    // bytes exceed `isize::MAX`) is a bad header, not a panic.
    let cells = rows.checked_mul(dim).ok_or(W2vParseError::BadHeader)?;
    if (dim == 0 && rows > 0) || std::alloc::Layout::array::<f32>(cells).is_err() {
        return Err(W2vParseError::BadHeader);
    }

    let mut names = Vec::new();
    let mut data = Vec::new();
    let mut line_no = 1;
    while names.len() < rows {
        line.clear();
        line_no += 1;
        let bad_row = || W2vParseError::BadRow { line: line_no };
        // End of input, or a last row cut short: either way, not a row.
        input.read_line(&mut line).map_err(|_| bad_row())?;
        if !line.ends_with('\n') {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let token = parts.next().ok_or_else(bad_row)?;
        let before = data.len();
        for p in parts {
            data.push(p.parse::<f32>().map_err(|_| bad_row())?);
        }
        if data.len() - before != dim {
            return Err(bad_row());
        }
        names.push(token.to_owned());
    }
    if names.len() != rows {
        return Err(W2vParseError::Truncated {
            expected: rows,
            actual: names.len(),
        });
    }
    Ok((names, Matrix::from_data(rows, dim, data)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Matrix::uniform_init(5, 3, 7);
        let mut buf = Vec::new();
        write_text(&m, |i| format!("tok_{i}"), &mut buf).unwrap();
        let (names, back) = read_text(&buf[..]).unwrap();
        assert_eq!(names, vec!["tok_0", "tok_1", "tok_2", "tok_3", "tok_4"]);
        assert_eq!(back.rows(), 5);
        assert_eq!(back.dim(), 3);
        for i in 0..5 {
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            read_text(&b"oops\n"[..]).unwrap_err(),
            W2vParseError::BadHeader
        );
        assert_eq!(read_text(&b""[..]).unwrap_err(), W2vParseError::BadHeader);
    }

    #[test]
    fn wrong_column_count_rejected() {
        let text = b"1 3\ntok 1.0 2.0\n";
        assert_eq!(
            read_text(&text[..]).unwrap_err(),
            W2vParseError::BadRow { line: 2 }
        );
    }

    #[test]
    fn truncated_file_rejected() {
        let text = b"2 2\ntok 1.0 2.0\n";
        assert_eq!(
            read_text(&text[..]).unwrap_err(),
            W2vParseError::Truncated {
                expected: 2,
                actual: 1
            }
        );
        // Cut inside the last value: `2.0` would parse as `2.`.
        let cut = b"1 2\ntok 1.0 2.";
        assert_eq!(
            read_text(&cut[..]).unwrap_err(),
            W2vParseError::Truncated {
                expected: 1,
                actual: 0
            }
        );
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = Matrix::zeros(0, 4);
        let mut buf = Vec::new();
        write_text(&m, |i| format!("t{i}"), &mut buf).unwrap();
        let (names, back) = read_text(&buf[..]).unwrap();
        assert!(names.is_empty());
        assert_eq!(back.rows(), 0);
    }
}
