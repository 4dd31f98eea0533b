package perfbench

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def render(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => quote(s)
    case b: Boolean                => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                 => d.toString
    case n: Int                    => n.toString
    case n: Long                   => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]           => xs.map(render).mkString("[", ", ", "]")
    case p: Product                =>
      p.productElementNames.zip(p.productIterator).map { case (k, x) => s"${quote(k)}: ${render(x)}" }
        .mkString("{", ", ", "}")
    case other                     => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
