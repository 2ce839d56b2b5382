//! ProXML: an XML document format for prob-trees.
//!
//! The paper's motivating system stores imprecise data in an XML
//! warehouse. This module round-trips prob-trees through a simple XML
//! dialect built on the `pxml-xml` substrate:
//!
//! ```xml
//! <prob-tree>
//!   <events>
//!     <event name="w1" prob="0.8"/>
//!     <event name="w2" prob="0.7"/>
//!   </events>
//!   <node label="A">
//!     <node label="B" cond="w1 !w2"/>
//!     <node label="C">
//!       <node label="D" cond="w2"/>
//!     </node>
//!   </node>
//! </prob-tree>
//! ```
//!
//! Conditions are space-separated literals; `!` marks negation. Node labels
//! may contain arbitrary characters (they are XML-escaped); event names
//! must be non-empty, free of whitespace and not start with `!`, so that a
//! condition can carry them.

use std::fmt;

use pxml_events::{is_condition_name, Condition, EventTable, Literal};
use pxml_tree::NodeId;
use pxml_xml::dom::{Element, XmlNode};
use pxml_xml::parser::{parse, ParseError};
use pxml_xml::writer::write_document;

use crate::probtree::ProbTree;

/// Error produced while reading a ProXML document.
#[derive(Clone, Debug)]
pub enum ProXmlError {
    /// The document is not well-formed XML.
    Xml(ParseError),
    /// The document is well-formed XML but not valid ProXML.
    Format(String),
}

impl fmt::Display for ProXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProXmlError::Xml(e) => write!(f, "{e}"),
            ProXmlError::Format(msg) => write!(f, "invalid ProXML document: {msg}"),
        }
    }
}

impl std::error::Error for ProXmlError {}

impl From<ParseError> for ProXmlError {
    fn from(e: ParseError) -> Self {
        ProXmlError::Xml(e)
    }
}

/// Serializes a prob-tree as a ProXML document.
///
/// Every node label round-trips through [`from_xml`]. An event name
/// round-trips when it is non-empty, contains no whitespace and does not
/// start with `!` (every name [`EventTable::fresh`] makes qualifies):
/// the `cond` attribute separates literals by whitespace and marks
/// negation with a leading `!`, so [`from_xml`] refuses any other name.
pub fn to_xml(tree: &ProbTree) -> String {
    let mut root = Element::new("prob-tree");

    let mut events_el = Element::new("events");
    for event in tree.events().iter() {
        events_el.children.push(XmlNode::Element(
            Element::new("event")
                .with_attr("name", tree.events().name(event))
                .with_attr("prob", format!("{}", tree.events().prob(event))),
        ));
    }
    root.children.push(XmlNode::Element(events_el));

    fn node_to_element(tree: &ProbTree, node: NodeId) -> Element {
        let mut el = Element::new("node").with_attr("label", tree.tree().label(node));
        let cond = tree.condition(node);
        if !cond.is_empty() {
            let text = cond
                .literals()
                .iter()
                .map(|l| {
                    let name = tree.events().name(l.event);
                    if l.positive {
                        name.to_string()
                    } else {
                        format!("!{name}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" ");
            el = el.with_attr("cond", text);
        }
        for &child in tree.tree().children(node) {
            el.children
                .push(XmlNode::Element(node_to_element(tree, child)));
        }
        el
    }
    root.children
        .push(XmlNode::Element(node_to_element(tree, tree.tree().root())));

    write_document(&root)
}

/// Parses a ProXML document back into a prob-tree. The `<prob-tree>`
/// element holds at most one `<events>` and exactly one root `<node>`;
/// event names are unique and must be names a condition can carry (see
/// [`to_xml`]).
pub fn from_xml(text: &str) -> Result<ProbTree, ProXmlError> {
    let doc = parse(text)?;
    if doc.name != "prob-tree" {
        return Err(ProXmlError::Format(format!(
            "expected root element <prob-tree>, found <{}>",
            doc.name
        )));
    }
    let (mut events_el, mut root_el) = (None, None);
    for child in doc.child_elements() {
        let slot = match child.name.as_str() {
            "events" => &mut events_el,
            "node" => &mut root_el,
            other => {
                return Err(ProXmlError::Format(format!(
                    "unexpected element <{other}> inside <prob-tree>"
                )))
            }
        };
        if slot.replace(child).is_some() {
            return Err(ProXmlError::Format(format!(
                "<prob-tree> holds more than one <{}>",
                child.name
            )));
        }
    }

    let mut events = EventTable::new();
    if let Some(events_el) = events_el {
        for event_el in events_el.child_elements() {
            if event_el.name != "event" {
                return Err(ProXmlError::Format(format!(
                    "unexpected element <{}> inside <events>",
                    event_el.name
                )));
            }
            let name = event_el
                .attr("name")
                .ok_or_else(|| ProXmlError::Format("<event> without name".to_string()))?;
            if !is_condition_name(name) {
                return Err(ProXmlError::Format(format!(
                    "event name {name:?} is empty, holds whitespace or starts with '!'"
                )));
            }
            if events.by_name(name).is_some() {
                return Err(ProXmlError::Format(format!(
                    "event {name:?} is declared twice"
                )));
            }
            let prob: f64 = event_el
                .attr("prob")
                .ok_or_else(|| ProXmlError::Format("<event> without prob".to_string()))?
                .parse()
                .map_err(|_| ProXmlError::Format("unparsable probability".to_string()))?;
            if !(prob > 0.0 && prob <= 1.0) {
                return Err(ProXmlError::Format(format!(
                    "event probability {prob} out of (0, 1]"
                )));
            }
            events.insert(name, prob);
        }
    }

    let root_el = root_el.ok_or_else(|| ProXmlError::Format("missing root <node>".to_string()))?;
    let root_label = root_el
        .attr("label")
        .ok_or_else(|| ProXmlError::Format("<node> without label".to_string()))?;
    if root_el.attr("cond").is_some() {
        return Err(ProXmlError::Format(
            "the root node cannot carry a condition".to_string(),
        ));
    }

    let mut tree = ProbTree::new(root_label);
    *tree.events_mut() = events;

    fn parse_condition(text: &str, events: &EventTable) -> Result<Condition, ProXmlError> {
        let mut literals = Vec::new();
        for token in text.split_whitespace() {
            let (positive, name) = match token.strip_prefix('!') {
                Some(rest) => (false, rest),
                None => (true, token),
            };
            let event = events.by_name(name).ok_or_else(|| {
                ProXmlError::Format(format!("condition mentions unknown event {name:?}"))
            })?;
            literals.push(Literal { event, positive });
        }
        Ok(Condition::from_literals(literals))
    }

    fn parse_children(
        el: &Element,
        tree: &mut ProbTree,
        parent: NodeId,
    ) -> Result<(), ProXmlError> {
        for child_el in el.child_elements() {
            if child_el.name != "node" {
                return Err(ProXmlError::Format(format!(
                    "unexpected element <{}> inside <node>",
                    child_el.name
                )));
            }
            let label = child_el
                .attr("label")
                .ok_or_else(|| ProXmlError::Format("<node> without label".to_string()))?;
            let condition = match child_el.attr("cond") {
                Some(text) => parse_condition(text, tree.events())?,
                None => Condition::always(),
            };
            let id = tree.add_child(parent, label, condition);
            parse_children(child_el, tree, id)?;
        }
        Ok(())
    }

    let root = tree.tree().root();
    parse_children(root_el, &mut tree, root)?;
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::structural_equivalent_exhaustive;
    use crate::probtree::figure1_example;

    #[test]
    fn figure1_roundtrip() {
        let t = figure1_example();
        let xml = to_xml(&t);
        assert!(xml.contains("<prob-tree>"));
        assert!(xml.contains("cond=\"w1 !w2\""));
        let back = from_xml(&xml).expect("parse back");
        assert!(structural_equivalent_exhaustive(&t, &back, 20).unwrap());
    }

    #[test]
    fn unknown_event_in_condition_is_rejected() {
        let doc = r#"<prob-tree><events/><node label="A"><node label="B" cond="mystery"/></node></prob-tree>"#;
        let err = from_xml(doc).unwrap_err();
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn root_condition_is_rejected() {
        let doc = r#"<prob-tree>
            <events><event name="w" prob="0.5"/></events>
            <node label="A" cond="w"/>
        </prob-tree>"#;
        assert!(from_xml(doc).is_err());
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let doc = r#"<prob-tree>
            <events><event name="w" prob="1.5"/></events>
            <node label="A"/>
        </prob-tree>"#;
        assert!(from_xml(doc).is_err());
    }

    #[test]
    fn malformed_xml_is_reported_as_xml_error() {
        let err = from_xml("<prob-tree><node").unwrap_err();
        assert!(matches!(err, ProXmlError::Xml(_)));
    }

    #[test]
    fn wrong_root_element_is_rejected() {
        let err = from_xml("<not-a-prob-tree/>").unwrap_err();
        assert!(err.to_string().contains("prob-tree"));
    }

    #[test]
    fn labels_with_special_characters_roundtrip() {
        // Note: event names may not contain whitespace (the cond attribute
        // is whitespace-separated), but XML-significant characters are fine.
        let mut t = ProbTree::new("A & B <tricky>");
        let w = t.events_mut().insert("w\"quoted\"", 0.5);
        let root = t.tree().root();
        t.add_child(root, "child > node", Condition::of(Literal::pos(w)));
        let xml = to_xml(&t);
        let back = from_xml(&xml).expect("roundtrip");
        assert_eq!(back.tree().label(back.tree().root()), "A & B <tricky>");
        assert_eq!(
            back.events().name(pxml_events::EventId::from_index(0)),
            "w\"quoted\""
        );
    }

    /// Names at the edge of the rule — a `!` past the first character,
    /// quotes, XML-significant characters, non-ASCII — survive a round
    /// trip, in positive and negative literals.
    #[test]
    fn event_names_at_the_edge_of_the_rule_roundtrip() {
        let names = ["x!", "a!b", "w\"q\"", "<&>", "é", "-"];
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for (i, name) in names.into_iter().enumerate() {
            let w = t.events_mut().insert(name, 0.5);
            let literal = if i % 2 == 0 {
                Literal::pos(w)
            } else {
                Literal::neg(w)
            };
            t.add_child(root, "B", Condition::of(literal));
        }
        let back = from_xml(&to_xml(&t)).expect("every name reads back");
        let read: Vec<&str> = back
            .events()
            .iter()
            .map(|w| back.events().name(w))
            .collect();
        assert_eq!(read, names);
        assert_eq!(back.to_ascii(), t.to_ascii());
    }

    #[test]
    fn duplicate_event_names_are_rejected() {
        let doc = r#"<prob-tree>
            <events><event name="w" prob="0.5"/><event name="w" prob="0.6"/></events>
            <node label="A"/>
        </prob-tree>"#;
        let err = from_xml(doc).unwrap_err();
        assert!(matches!(&err, ProXmlError::Format(msg) if msg.contains("declared twice")));
    }

    #[test]
    fn event_names_a_condition_cannot_carry_are_rejected() {
        for name in ["", "a b", "!x"] {
            let doc = format!(
                r#"<prob-tree>
                    <events><event name="{name}" prob="0.5"/></events>
                    <node label="A"/>
                </prob-tree>"#
            );
            let err = from_xml(&doc).unwrap_err();
            assert!(matches!(err, ProXmlError::Format(_)), "{name:?}: {err}");
        }
    }

    #[test]
    fn prob_tree_holds_one_events_table_and_one_root() {
        let events = r#"<events><event name="w" prob="0.5"/></events>"#;
        for body in [
            format!(r#"{events}<node label="A"/><node label="B"/>"#),
            format!(r#"{events}{events}<node label="A"/>"#),
            format!(r#"{events}<node label="A"/><extra/>"#),
            events.to_owned(),
        ] {
            let err = from_xml(&format!("<prob-tree>{body}</prob-tree>")).unwrap_err();
            assert!(matches!(err, ProXmlError::Format(_)), "{body}: {err}");
        }
    }
}
