//! Error types shared across the ISA crate.

use crate::opcode::Opcode;
use std::error::Error;
use std::fmt;

/// Errors from constructing or validating ISA entities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A register index outside the architectural register file.
    InvalidRegister {
        /// The offending index.
        index: u8,
        /// Size of the register file.
        limit: u8,
    },
    /// An instruction was built with the wrong operand count or kinds.
    BadOperands {
        /// The opcode being constructed.
        opcode: Opcode,
        /// Description of the mismatch.
        message: String,
    },
    /// A mnemonic that names no known opcode.
    UnknownMnemonic(String),
    /// An assembly line that could not be parsed.
    Syntax {
        /// 1-based line number when parsing multi-line sources, else 1.
        line: u32,
        /// Description of the problem.
        message: String,
    },
    /// An instruction definition referenced an operand id that was never
    /// defined (the paper specifies the framework must terminate on this).
    UndefinedOperand {
        /// Name of the instruction definition.
        instruction: String,
        /// The missing operand id.
        operand: String,
    },
    /// An operand definition is incompatible with the opcode's slot
    /// (e.g. a vector-register class supplied where an immediate is needed).
    IncompatibleOperand {
        /// Name of the instruction definition.
        instruction: String,
        /// The operand id.
        operand: String,
        /// Description of the expected kind.
        expected: &'static str,
    },
    /// An operand or instruction definition with an empty value set.
    EmptyDefinition {
        /// The definition's id or name.
        id: String,
    },
    /// Two definitions share a name/id that must be unique.
    DuplicateDefinition {
        /// The repeated id.
        id: String,
    },
    /// A configuration element was missing or malformed.
    Config(String),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::InvalidRegister { index, limit } => {
                write!(f, "register index {index} out of range (register file has {limit})")
            }
            IsaError::BadOperands { opcode, message } => {
                write!(f, "bad operands for {opcode}: {message}")
            }
            IsaError::UnknownMnemonic(m) => write!(f, "unknown mnemonic {m:?}"),
            IsaError::Syntax { line, message } => write!(f, "syntax error on line {line}: {message}"),
            IsaError::UndefinedOperand { instruction, operand } => write!(
                f,
                "instruction definition {instruction:?} references undefined operand {operand:?}"
            ),
            IsaError::IncompatibleOperand { instruction, operand, expected } => write!(
                f,
                "operand {operand:?} of instruction definition {instruction:?} is incompatible: expected {expected}"
            ),
            IsaError::EmptyDefinition { id } => {
                write!(f, "definition {id:?} has an empty value set")
            }
            IsaError::DuplicateDefinition { id } => write!(f, "duplicate definition {id:?}"),
            IsaError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for IsaError {}

/// Errors from the binary population codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd {
        /// What was being decoded.
        decoding: &'static str,
    },
    /// A tag byte that matches no known variant.
    BadTag {
        /// What was being decoded.
        decoding: &'static str,
        /// The unknown tag value.
        tag: u16,
    },
    /// A decoded string was not valid UTF-8.
    BadString,
    /// A length field exceeded a sanity limit.
    LengthOverflow {
        /// The decoded length.
        length: u64,
        /// The enforced limit.
        limit: u64,
    },
    /// The payload failed domain validation after decoding.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { decoding } => {
                write!(f, "buffer ended while decoding {decoding}")
            }
            CodecError::BadTag { decoding, tag } => {
                write!(f, "unknown tag {tag} while decoding {decoding}")
            }
            CodecError::BadString => write!(f, "decoded string is not valid utf-8"),
            CodecError::LengthOverflow { length, limit } => {
                write!(f, "decoded length {length} exceeds limit {limit}")
            }
            CodecError::Invalid(msg) => write!(f, "decoded value failed validation: {msg}"),
        }
    }
}

impl Error for CodecError {}

impl From<IsaError> for CodecError {
    fn from(err: IsaError) -> Self {
        CodecError::Invalid(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_error_messages_are_informative() {
        let err = IsaError::UndefinedOperand {
            instruction: "LDR".into(),
            operand: "mem_result".into(),
        };
        let text = err.to_string();
        assert!(text.contains("LDR"));
        assert!(text.contains("mem_result"));
    }

    #[test]
    fn codec_error_from_isa_error() {
        let err: CodecError = IsaError::UnknownMnemonic("FOO".into()).into();
        assert!(matches!(err, CodecError::Invalid(_)));
    }
}
