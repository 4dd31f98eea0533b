package org.apache.spark

/** Waits until Spark's listener bus has delivered every event posted so
  * far, so a listener's counts for a job group are complete once the call
  * that ran the group's jobs has returned. The bus is `private[spark]`,
  * hence this accessor lives in Spark's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
