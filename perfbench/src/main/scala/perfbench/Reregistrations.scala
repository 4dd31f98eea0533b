package perfbench

import java.util.concurrent.atomic.AtomicInteger

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property

/** Counts Spark's "replaced a previously registered function" warnings:
  * each is one function registered again into a session that had it.
  * perfbench/log4j2.properties keeps the registry's warnings off the
  * console; this appender is their only consumer.
  */
object Reregistrations {
  private val n = new AtomicInteger()
  private val Registry = "org.apache.spark.sql.catalyst.analysis.SimpleFunctionRegistry"

  private lazy val installed: Unit = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val app = new AbstractAppender("perfbench-reregistrations", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit =
        if (e.getMessage.getFormattedMessage.contains("previously registered function")) n.incrementAndGet()
    }
    app.start()
    ctx.getConfiguration.getLoggerConfig(Registry).addAppender(app, Level.WARN, null)
    ctx.updateLoggers()
  }

  def count: Int = { installed; n.get }
}
